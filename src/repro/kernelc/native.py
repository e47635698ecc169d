"""Native chain compilation: one C translation unit per loop chain.

The second kernelc printer.  :mod:`repro.kernelc.vector` derives
batched NumPy kernels; this module lowers a whole *traced loop
chain* — every :class:`~repro.core.chain.BoundLoop` of a
:class:`~repro.core.chain.CompiledChain` — into a single C translation
unit: per-element gathers, the scalar kernel body, and the scatters
fused into one native loop per chain member, with AoS/SoA index
arithmetic, map arities, set extents and closure constants baked into
the source text.  The TU is compiled once with the system C compiler
and loaded through cffi's ABI mode; runtime data arrives per run as a
flat ``void **`` pointer table, so the shared object itself is
position- and process-independent and can be cached on disk.

Each loop goes through three steps, once each:

1. **lowering** (:func:`lower_loop`): one pass over the kernel IR
   resolves the body to C text — subscripts to argument references,
   aliases substituted, ``for`` loops unrolled, helpers inlined,
   literals typed (:class:`~repro.kernelc.lower.Literals`), generated
   names kept apart from the kernel's (:class:`~repro.kernelc.lower.
   Names`) — into a :class:`LoweredLoop`: the scalar locals, every store
   as a :class:`Store` record, the arguments read by value and the
   reduction updates (:func:`~repro.kernelc.lower.reduction_updates`);
2. **verdicts** (:func:`loop_verdict`, :func:`lane_verdict`): how the
   loop runs, read off the argument specs and the lowered loop;
3. **printing** (:class:`_Loop`): the loop shape the verdicts chose
   around the lowered body, each store into the sink that shape needs.

Determinism rationale
---------------------
The emitted C replays the *sequential* backend operation for
operation: elements execute in ascending order, every operation is
spelled in C as :mod:`repro.kernelc.lower`'s op table says — the exact
machine operation NumPy's scalar path performs — and the TU is compiled
with ``-ffp-contract=off -fno-fast-math`` (:mod:`repro.kernelc.build`)
so the compiler can neither fuse multiply-adds nor reassociate.  Native
results are therefore *bitwise identical* to sequential eager
execution — the acceptance bar the differential fuzz suite
(``tests/test_kernelc_fuzz.py``) locks down.

Large chains run on an OpenMP team by *owner-computes* (see
:class:`LoopVerdict`): direct loops over element chunks, indirect-write
loops over a fixed number of owner chunks, each of which runs every
element touching its targets in ascending order and applies only the
stores it owns.  Every target still sees its updates in the sequential
order, so the bits do not depend on the team size
(``tests/test_threads.py``).

Within a thread, the same large loops are lowered *across elements*,
the paper's scheme (see :class:`LaneVerdict`): a loop that writes
nothing through a map is one ``omp simd`` loop; an increment loop runs
in packets of :data:`PACKET` elements — gathers and kernel body across
the lanes under ``omp simd`` into one packet column per store, then an
ordered scatter applying those stores element by element in program
order.  Each lane performs its element's scalar IEEE operations and
every target still receives its updates in the sequential order, so
the lowering keeps the bits (``tests/test_lanes.py``).

:mod:`repro.kernelc.build` compiles a TU and caches the library (the
runtime's fifth cache kind); above it, the native backend keeps built
programs by chain shape, so a chain of a known shape emits and loads
nothing (``program_hits``).

Anything outside the translatable subset raises
:class:`NativeUnsupported`; the native backend then falls back (see
``backends/native.py``).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.access import Access
from ..core.map import MAP_DTYPE
from ..core.plan import OwnerRanges, owner_ranges
from . import lower
from .build import is_threaded, load_native_library, note_threads
from .cache import kernel_ir
from .ir import SAssign, SAug, SFor, SIf, is_lane_safe_helper
from .lower import NativeUnsupported, UnvectorizableKernel


# ----------------------------------------------------------------------
# C types and identifiers
# ----------------------------------------------------------------------
_CTYPES = {
    np.dtype(np.float64): "double",
    np.dtype(np.float32): "float",
    np.dtype(np.int64): "long long",
}

_C_KEYWORDS = frozenset(
    """auto break case char const continue default do double else enum extern
    float for goto if inline int long register restrict return short signed
    sizeof static struct switch typedef union unsigned void volatile while
    _Bool""".split()
)
#: Names the printer spells inside a loop body or a TU: no kernel local
#: may take one (it is renamed ``<name>_l``), no generated name either.
_RESERVED = _C_KEYWORDS | lower.C_CALLS | frozenset(
    {"e", "l", "r", "lo", "hi", "P", "NAN", "INFINITY", "i64", "DBL_MAX",
     "FLT_MAX"})
#: Names the printer spells from slot and argument numbers.
_GENERATED_RE = re.compile(r"^(?:[dmgv]\d+|i\d+|kc_\w+)$")


# ----------------------------------------------------------------------
# Pointer-table construction
# ----------------------------------------------------------------------
class _PointerTable:
    """Deterministic slot assignment for every runtime buffer a chain
    touches: Dat physical storage, Map index tables, Global values.
    Slots are assigned in first-encounter order over loops × args, so
    the same chain always produces the same table (and source text)."""

    def __init__(self) -> None:
        self.recipe: List[Tuple[int, int, str]] = []  # (loop, argpos, kind)
        self.comments: List[str] = []
        self._slots: Dict[int, int] = {}
        #: Buffers the program owns rather than a loop argument: owner
        #: ranges (the array) and reduction columns ((dtype, length)).
        self.buffers: Dict[int, object] = {}
        self._columns: Dict[Tuple[str, int], int] = {}

    def slot(self, array: np.ndarray, loop_j: int, argpos: int, kind: str,
             comment: str) -> int:
        key = id(array)
        found = self._slots.get(key)
        if found is not None:
            return found
        idx = len(self.recipe)
        self._slots[key] = idx
        self.recipe.append((loop_j, argpos, kind))
        self.comments.append(comment)
        return idx

    def owner(self, bounds: np.ndarray, loop_j: int) -> int:
        """The slot of an owner facet's ``(k, 2)`` bounds (loops sharing
        a plan share it)."""
        slot = self.slot(bounds, loop_j, -1, "own",
                         f"owner ranges: {len(bounds)} x (lo, hi)")
        self.buffers[slot] = bounds
        return slot

    def column(self, ctype: str, i: int, length: int) -> int:
        """Scratch column ``i`` of element type ``ctype``: one value per
        element of a threaded reduction.  Loops take turns with it (a
        column is folded before the next loop starts), so it is sized
        to the longest user."""
        slot = self._columns.get((ctype, i))
        if slot is None:
            slot = self._columns[(ctype, i)] = len(self.recipe)
            self.recipe.append((-1, -1, "col"))
            self.comments.append(f"reduction column {i} ({ctype})")
            self.buffers[slot] = (np.dtype(np.float32 if ctype == "float"
                                           else np.float64), 0)
        dtype, size = self.buffers[slot]
        self.buffers[slot] = (dtype, max(size, length))
        return slot


@dataclass
class _ArgSpec:
    """Everything the emitter bakes into the source for one argument."""

    kind: str  # direct | indirect | vector | gread | gwrite | gred
    slot: int
    map_slot: Optional[int]
    access: Access
    dim: int
    arity: int
    map_index: int
    layout: str
    extent: int
    ctype: str
    #: The target set's size, for an argument through a map.
    targets: int = 0


def _arg_spec(arg, loop_j: int, argpos: int, ptab: _PointerTable) -> _ArgSpec:
    if arg.is_global:
        g = arg.dat
        gtype = _CTYPES.get(np.dtype(g._data.dtype))
        if gtype not in ("double", "float"):
            raise NativeUnsupported(
                f"global {g.name}: only floating globals are nativizable"
            )
        slot = ptab.slot(g._data, loop_j, argpos, "gbl", f"global {g.name}")
        # A scalar loop's stored Globals ("gwrite") are addressed like
        # read ones, through a writable pointer.
        kind = ("gred" if arg.access.is_reduction
                else "gwrite" if arg.access.writes else "gread")
        return _ArgSpec(kind, slot, None, arg.access, g.dim, 0, -1,
                        "aos", g.dim, gtype)
    dat = arg.dat
    ctype = _CTYPES.get(dat.dtype)
    if ctype is None:
        raise NativeUnsupported(
            f"dat {dat.name}: dtype {dat.dtype} has no native mapping"
        )
    storage = dat._storage
    extent = storage.shape[1] if dat.layout == "soa" else storage.shape[0]
    slot = ptab.slot(
        storage, loop_j, argpos, "dat",
        f"dat {dat.name}: dim {dat.dim}, {dat.layout}, extent {extent}",
    )
    if arg.is_direct:
        return _ArgSpec("direct", slot, None, arg.access, dat.dim, 0, -1,
                        dat.layout, extent, ctype)
    if arg.map.values.dtype != MAP_DTYPE:
        raise NativeUnsupported(
            f"map {arg.map.name}: table dtype {arg.map.values.dtype} is not "
            f"the {np.dtype(MAP_DTYPE).name} the emitted C reads"
        )
    map_slot = ptab.slot(
        arg.map.values, loop_j, argpos, "map",
        f"map {arg.map.name}: arity {arg.map.arity}",
    )
    if arg.is_vector:
        return _ArgSpec("vector", slot, map_slot, arg.access, dat.dim,
                        arg.map.arity, -1, dat.layout, extent, ctype,
                        arg.map.to_set.size)
    return _ArgSpec("indirect", slot, map_slot, arg.access, dat.dim,
                    arg.map.arity, int(arg.index), dat.layout, extent, ctype,
                    arg.map.to_set.size)


# ----------------------------------------------------------------------
# Name-resolution scope for the lowering pass
# ----------------------------------------------------------------------
@dataclass
class _Scope:
    ns: Dict[str, object]
    rename: Dict[str, str] = field(default_factory=dict)
    aliases: Dict[str, tuple] = field(default_factory=dict)
    loops: Dict[str, int] = field(default_factory=dict)
    params: Dict[str, int] = field(default_factory=dict)
    #: Names the kernel binds: never compile-time constants.
    bound: frozenset = frozenset()
    #: An inlined helper's prefix for its locals (declared where bound).
    prefix: Optional[str] = None

    def constant(self, name: str):
        """What ``name`` denotes at compile time: an unrolled loop
        variable's value, else its namespace object; ``None`` for a
        local, an alias or a parameter."""
        if name in self.loops:
            return self.loops[name]
        if name in self.rename or name in self.aliases \
                or name in self.params or name in self.bound:
            return None
        return self.ns.get(name)


# ----------------------------------------------------------------------
# Owner-computes threading
# ----------------------------------------------------------------------
#: Owner chunks of a threaded indirect-write loop (and element chunks of
#: a threaded direct one).  Fixed, not the team size: the TU and the
#: bits it produces do not depend on how many threads run it.
OWNER_CHUNKS = 16
#: Loops over fewer elements run on one thread, one element at a time,
#: and a TU none of whose loops reaches this is emitted with no OpenMP
#: at all.  Measured on a 2-vCPU KVM guest (gcc 12.2): a dim-4 copy
#: breaks even with its serial TU at ~24k elements, a one-flop indirect
#: increment at ~32k; at 16k both lose 5-15 %.  Lowering across lanes
#: costs compile time instead (the AVX-512 build of a lowered TU takes
#: ~2x as long), which a small loop does not earn back.
THREAD_MIN_ELEMENTS = 32768
#: A loop lowered one element at a time (``scalar`` lanes) unrolls the
#: gather and the writeback of a vector argument of at most this many
#: values (arity x dim) into one named row index and one copy per value,
#: which gcc keeps in registers; a larger one stays a ``for`` loop over
#: a stack array.  Measured on ``aero_solve`` (gcc 12, 2 vCPU): at 16
#: the CG matvec's 9-row gather unrolls and the native calls of a unit
#: take ~15 % less time than with no unrolling (8 leaves it a loop);
#: unrolling every argument also unrolls ``matfree_coeffs``' 36-row
#: gathers for no further gain, its TU 584 -> 998 lines and ~0.3 ->
#: 0.7 s of ``cc`` (CHANGES.md has the sweep).
UNROLL_MAX_VALUES = 16
#: Owner ranges re-running more than this share of a loop's elements
#: (a non-local numbering) leave the loop serial.
OWNER_MAX_DUP = 1.25


@dataclass(frozen=True)
class LoopVerdict:
    """How a loop of a threaded TU runs.

    ``direct``: no indirect writes — contiguous element chunks.
    ``owner``: writes only through maps — :data:`OWNER_CHUNKS` owner
    chunks (``facet``), each applying only the stores it owns.
    ``serial``: on one thread of the team, for ``reason``.
    """

    kind: str
    reason: str = ""
    facet: Optional[OwnerRanges] = None

    @property
    def label(self) -> str:
        """The verdict without the facet's numbers (goes in the TU)."""
        return f"serial: {self.reason}" if self.kind == "serial" else self.kind

    def __str__(self) -> str:
        dup = f"dup={self.facet.dup:.3f}" if self.facet is not None else ""
        if self.kind == "owner":
            return f"owner(k={self.facet.k}, {dup})"
        return f"{self.label} ({dup})" if dup else self.label


# ----------------------------------------------------------------------
# Lowering across elements
# ----------------------------------------------------------------------
#: Elements per packet of an increment loop.  Fixed, like the owner
#: chunks, so the TU does not depend on the host's vector width; a
#: multiple of every x86 lane count, and small enough that a packet's
#: store columns stay in L1 (res_calc: 8 columns of 16 doubles).
PACKET = 16


@dataclass(frozen=True)
class LaneVerdict:
    """How a loop's elements map onto vector lanes.

    ``simd``: writes nothing through a map — the element loop is one
    ``omp simd`` loop.
    ``packet``: writes through maps — :data:`PACKET` elements at a time,
    gathers and body across the lanes under ``omp simd`` with every
    store through a map captured in a packet column, then an ordered
    scatter applying the columns element by element in program order.
    ``scalar``: one element at a time, for ``reason``.
    """

    kind: str
    reason: str = ""

    def __str__(self) -> str:
        if self.kind == "packet":
            return f"packet({PACKET})"
        return f"scalar: {self.reason}" if self.kind == "scalar" else self.kind


# ----------------------------------------------------------------------
# The lowered loop
# ----------------------------------------------------------------------
@dataclass
class Store:
    """One store of a lowered body, ``lvalue op value;``: component
    ``comp`` of argument ``argpos``, under ``depth`` enclosing branches.
    ``operand``: for a reduction update, the value its column holds."""

    argpos: int
    comp: int
    lvalue: str
    op: str
    value: str
    depth: int
    operand: Optional[str] = None


@dataclass
class Branch:
    """``if cond { body } else { orelse }`` (``orelse`` ``None``: the
    kernel's ``if`` has no ``else``)."""

    cond: str
    body: list
    orelse: Optional[list]


@dataclass
class LoweredLoop:
    """One loop's kernel body resolved to C text, once: what the
    verdicts read and the printer prints around a loop shape."""

    #: C lines, :class:`Store` and :class:`Branch` records, in program
    #: order; a line is a statement without indentation.
    body: list
    #: The scalar locals' C names, in declaration order.
    locals: List[str]
    #: Every :class:`Store` of ``body``, branches included, in order.
    stores: List[Store]
    #: Argument positions the body reads by value.
    value_reads: Set[int]
    #: ``(argpos, comp, op, operand_first)`` of each reduction update
    #: (:class:`~repro.kernelc.lower.Update`), in statement order;
    #: ``None`` when a reduction is not updated once per element.
    updates: Optional[List[Tuple[int, int, object, bool]]]
    #: The loop's C compute type.
    ft: str


class _Lowering:
    """The one pass over a loop's kernel IR that builds its
    :class:`LoweredLoop` (:func:`lower_loop`)."""

    def __init__(self, j: int, ir, specs: List["_ArgSpec"],
                 lit: lower.Literals, ft: str) -> None:
        self.j = j
        self.ir = ir
        self.specs = specs
        self.lit = lit
        self.ft = ft
        self.names = lower.Names(ir.names, _RESERVED,
                                 generated=_GENERATED_RE)
        self.locals: List[str] = []
        self.stores: List[Store] = []
        self.value_reads: set = set()
        self.depth = 0
        self.block: list = []

    def run(self) -> LoweredLoop:
        ir = self.ir
        red = {ir.params[k]: k for k, s in enumerate(self.specs)
               if s.kind == "gred"}
        found = lower.reduction_updates(
            ir, {p: self.specs[k].dim for p, k in red.items()}) \
            if red else {}
        scope = _Scope(ns=ir.namespace,
                       params={p: i for i, p in enumerate(ir.params)},
                       bound=frozenset(ir.local_names))
        for i, st in enumerate(ir.body):
            self._stmt(st, scope)
            if found and i in found:  # a reduction update: its operand
                self.stores[-1].operand = self._cx(found[i].operand, scope)
        updates = None if found is None else [
            (red[u.param], u.comp, u.op, u.operand_first)
            for _, u in sorted(found.items())
        ]
        return LoweredLoop(self.block, self.locals, self.stores,
                           self.value_reads, updates, self.ft)

    # -- subscript resolution -------------------------------------------
    def _resolve_access(self, node, scope: _Scope):
        """Resolve a (possibly chained) subscript.

        Returns one of
          ("lval", argpos, row_idx_or_None, comp)  — full param access
          ("elem", python_scalar)                  — closure array element
        or a partial subscript, which a name can alias (``_Scope``):
          ("arg", argpos, (idx,))                  — vector-arg row
          ("ns", ndarray)                          — closure array
        """
        idx_nodes = []
        base = node
        while isinstance(base, ast.Subscript):
            idx_nodes.append(base.slice)
            base = base.value
        idx_nodes.reverse()
        if not isinstance(base, ast.Name):
            raise NativeUnsupported("subscript of a non-name expression")
        name = base.id
        idxs = [lower.const_int(i, scope.constant) for i in idx_nodes]
        if None in idxs:
            raise NativeUnsupported(
                f"{ast.unparse(node)!r}: index not compile-time constant")

        pre: Tuple[int, ...] = ()
        if name in scope.aliases:
            target = scope.aliases[name]
            if target[0] == "arg":
                _, argpos, pre = target
                return self._param_access(argpos, list(pre) + idxs)
            _, arr = target
            return self._ns_access(arr, idxs)
        if name in scope.params:
            return self._param_access(scope.params[name], idxs)
        v = scope.ns.get(name)
        if isinstance(v, np.ndarray):
            return self._ns_access(v, idxs)
        raise NativeUnsupported(f"subscript of unsupported name {name!r}")

    def _param_access(self, argpos: int, idxs: List[int]):
        spec = self.specs[argpos]
        shape = (spec.arity, spec.dim) if spec.kind == "vector" \
            else (spec.dim,)
        if len(idxs) < len(shape):
            return ("arg", argpos, tuple(idxs))
        if len(idxs) > len(shape):
            raise NativeUnsupported(
                f"param {self.ir.params[argpos]}: too many subscripts"
            )
        idxs = [i % n if -n <= i < n else None for i, n in zip(idxs, shape)]
        if None in idxs:
            raise NativeUnsupported("subscript out of range")
        return ("lval", argpos, *([None] + idxs)[-2:])

    @staticmethod
    def _ns_access(arr: np.ndarray, idxs: List[int]):
        v = arr
        try:
            for i in idxs:
                v = v[i]
        except IndexError as exc:
            raise NativeUnsupported(f"constant-array index error: {exc}")
        return ("elem", v) if np.ndim(v) == 0 else ("ns", v)

    def _lvalue(self, argpos: int, slot_i, comp: int) -> str:
        spec = self.specs[argpos]
        if spec.kind == "direct":
            return _addr(spec, "e", comp)
        if spec.kind == "indirect":
            return _addr(spec, f"i{argpos}", comp)
        if spec.kind == "vector":
            return f"v{argpos}[{slot_i * spec.dim + comp}]"
        if spec.kind in ("gread", "gwrite"):
            return f"g{spec.slot}[{comp}]"
        return f"{_red(self.j, spec)}[{comp}]"  # gred

    # -- expressions ----------------------------------------------------
    def _cx(self, node, scope: _Scope) -> str:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (bool, int, float)):
                return self.lit.c(node.value)
            raise NativeUnsupported(f"constant {node.value!r}")
        if isinstance(node, ast.Name):
            name = node.id
            if name in scope.rename and name not in scope.loops \
                    and name not in scope.aliases:
                return scope.rename[name]
            v = scope.constant(name)  # None: an array, or unresolvable
            if isinstance(v, (bool, int, float, np.floating, np.integer)):
                return self.lit.c(v)
            raise NativeUnsupported(f"name {name!r} has no scalar value")
        if isinstance(node, ast.Subscript):
            r = self._resolve_access(node, scope)
            if r[0] == "lval":
                self.value_reads.add(r[1])
                return self._lvalue(r[1], r[2], r[3])
            if r[0] == "elem":
                return self.lit.c(r[1])
            raise NativeUnsupported("array-valued subscript in scalar position")
        if isinstance(node, ast.BinOp):
            folded = lower.fold(node, scope.constant)
            if folded is not None:
                return self.lit.c(folded)
            if isinstance(node.op, ast.Pow):
                return self._pow(node.left, node.right, scope)
            op = lower.BINOPS[type(node.op)]
            if op.c is None:
                raise NativeUnsupported(f"operator {op.name} in value position")
            return op.c.format(self._cx(node.left, scope),
                               self._cx(node.right, scope))
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.USub):
                return f"(-{self._cx(node.operand, scope)})"
            return self._cx(node.operand, scope)
        if isinstance(node, ast.Compare):
            return (f"({self._cond(node, scope)} ? "
                    f"{self.lit.c(1.0)} : {self.lit.c(0.0)})")
        if isinstance(node, ast.IfExp):
            return (
                f"({self._cond(node.test, scope)} ? "
                f"{self._cx(node.body, scope)} : "
                f"{self._cx(node.orelse, scope)})"
            )
        if isinstance(node, ast.Call):
            return self._call(node, scope)
        raise NativeUnsupported(
            f"expression {type(node).__name__} has no native lowering"
        )

    def _cond(self, node, scope: _Scope) -> str:
        if isinstance(node, ast.Compare):
            cop = lower.CMPOPS.get(type(node.ops[0]))
            if cop is None or len(node.ops) != 1:
                raise NativeUnsupported("unsupported comparison")
            return (
                f"({self._cx(node.left, scope)} {cop} "
                f"{self._cx(node.comparators[0], scope)})"
            )
        return f"({self._cx(node, scope)} != 0.0)"

    def _pow(self, base, expo, scope: _Scope) -> str:
        b = self._cx(base, scope)
        op, e = lower.pow_op(expo, scope.constant)
        if op is None:
            return self.lit.c(1.0) if e == 0.0 else b
        e = self._cx(expo, scope) if e is None else self.lit.c(e)
        return self.lit.spell(op, b, e)

    def _call(self, node: ast.Call, scope: _Scope) -> str:
        op = lower.op_for(lower.callee(node.func, scope.ns))
        if op is None or op.c is None or node.keywords or (
                op.arity is not None and len(node.args) != op.arity):
            raise NativeUnsupported(
                f"call {ast.unparse(node.func)!r} has no C lowering")
        args = [self._cond(a, scope) if op.test and i == 0
                else self._cx(a, scope) for i, a in enumerate(node.args)]
        return self.lit.spell(op, *args)

    # -- helper inlining ------------------------------------------------
    @staticmethod
    def _helper(node, scope: _Scope) -> Optional[lower.Helper]:
        """The lane-safe helper a statement-level call invokes, if any."""
        if not isinstance(node, ast.Call):
            return None
        fn = lower.callee(node.func, scope.ns)
        h = lower.helper(fn) if lower.op_for(fn) is None else None
        return h if h is not None and is_lane_safe_helper(fn) else None

    def _inline_helper(self, h: lower.Helper, call: ast.Call,
                       targets: list, scope: _Scope) -> None:
        pf = self.names.fresh("h{}_", "h", prefix=True)
        if len(h.params) != len(call.args) or len(h.returns) != len(targets):
            raise NativeUnsupported(
                f"helper {h.name}: {len(call.args)} arguments / "
                f"{len(targets)} targets do not match its signature")
        hscope = _Scope(ns=h.ns, prefix=pf)
        self.block.append(f"/* inlined {h.name}() */")
        for p, anode in zip(h.params, call.args):
            cn = hscope.rename[p] = pf + p
            self.block.append(
                f"const {self.ft} {cn} = {self._cx(anode, scope)};")
        for st in h.body:
            self._assign(st, hscope)
        tmps = []
        for i, rv in enumerate(h.returns):
            tmps.append(f"{pf}r{i}")
            self.block.append(
                f"const {self.ft} {tmps[-1]} = {self._cx(rv, hscope)};")
        for tgt, tn in zip(targets, tmps):
            if isinstance(tgt, str):
                self.block.append(f"{tgt} = {tn};")
            else:
                self._store(tgt, scope, "=", tn)

    # -- statements -----------------------------------------------------
    def _local(self, tgt, scope: _Scope) -> str:
        """The C name of a scalar local a statement binds: a kernel's is
        declared at the loop's top (an assignment in a branch stays
        visible), a helper's where it is first bound."""
        if not isinstance(tgt, ast.Name):
            raise NativeUnsupported(
                f"assignment target {type(tgt).__name__} unsupported"
            )
        scope.aliases.pop(tgt.id, None)
        cn = scope.rename.get(tgt.id)
        if cn is None and scope.prefix is not None:
            cn = scope.rename[tgt.id] = scope.prefix + tgt.id
            self.block.append(f"{self.ft} {cn};")
        elif cn is None:
            cn = scope.rename[tgt.id] = self.names.local(tgt.id)
            self.locals.append(cn)
        return cn

    def _store(self, tgt, scope: _Scope, op: str, rhs) -> None:
        """One store, ``target op rhs;``.  ``rhs`` is the value's C, or
        a callable giving it once the target has resolved."""
        if not isinstance(tgt, ast.Subscript):
            target = self._local(tgt, scope)
            value = rhs() if callable(rhs) else rhs
            self.block.append(f"{target} {op} {value};")
            return
        r = self._resolve_access(tgt, scope)
        if r[0] != "lval":
            raise NativeUnsupported("partial-array store target")
        value = rhs() if callable(rhs) else rhs
        self.stores.append(Store(r[1], r[3], self._lvalue(*r[1:]), op, value,
                                 self.depth))
        self.block.append(self.stores[-1])

    def _stmt(self, st, scope: _Scope) -> None:
        if isinstance(st, SAssign):
            self._assign(st, scope)
        elif isinstance(st, SAug):
            op = lower.AUGOPS.get(type(st.op))
            if op is None:
                raise NativeUnsupported("unsupported augmented assignment")
            self._store(st.target, scope, op, self._cx(st.value, scope))
        elif isinstance(st, SFor):
            if st.var in scope.loops:
                raise NativeUnsupported(f"loop variable {st.var!r} reused")
            span = range(st.start, st.stop, st.step)
            if len(span) > 4096:
                raise NativeUnsupported("dim loop too large to unroll")
            self.block.append(f"/* for {st.var} in "
                       f"range({st.start}, {st.stop}, {st.step}) */")
            for v in span:
                scope.loops[st.var] = v
                for inner in st.body:
                    self._stmt(inner, scope)
            scope.loops.pop(st.var, None)
        elif isinstance(st, SIf):
            before = dict(scope.aliases)
            branch = Branch(self._cond(st.test, scope), [],
                            [] if st.orelse else None)
            self.block.append(branch)
            outer = self.block
            self.depth += 1
            for block, stmts in ((branch.body, st.body),
                                 (branch.orelse, st.orelse)):
                self.block = block
                for inner in stmts:
                    self._stmt(inner, scope)
                if scope.aliases != before:
                    raise NativeUnsupported("alias binding inside a branch")
            self.depth -= 1
            self.block = outer
        else:
            raise NativeUnsupported(
                f"statement {type(st).__name__} has no native lowering"
            )

    def _assign(self, st, scope: _Scope) -> None:
        """A kernel's :class:`SAssign`, or a helper body's assignment."""
        (tgt,) = st.targets
        # Array aliasing: ``x1 = x[k]`` binds a row, emits nothing.
        if isinstance(tgt, ast.Name) and isinstance(st.value, ast.Subscript):
            r = self._resolve_access(st.value, scope)
            if r[0] in ("arg", "ns"):
                scope.aliases[tgt.id] = r
                return
        # Helper call: inline at statement level.
        h = self._helper(st.value, scope)
        if h is not None:
            # Locals resolve now (binding order); stores at the end.
            targets = [
                t if isinstance(t, ast.Subscript) else self._local(t, scope)
                for t in (tgt.elts if isinstance(tgt, ast.Tuple) else [tgt])
            ]
            self._inline_helper(h, st.value, targets, scope)
            return
        if isinstance(tgt, ast.Tuple):
            if not isinstance(st.value, ast.Tuple) or \
                    len(st.value.elts) != len(tgt.elts):
                raise NativeUnsupported("tuple assignment shape mismatch")
            tmps = []
            for v in st.value.elts:
                # RHS evaluated before any target is written (swap-safe).
                if isinstance(v, ast.Subscript):
                    r = self._resolve_access(v, scope)
                    if r[0] in ("arg", "ns"):
                        tmps.append(("alias", r))
                        continue
                tn = self.names.fresh("t{}", "t")
                self.block.append(
                    f"const {self.ft} {tn} = {self._cx(v, scope)};")
                tmps.append(("tmp", tn))
            for t, (kind, val) in zip(tgt.elts, tmps):
                if kind == "alias":
                    if not isinstance(t, ast.Name):
                        raise NativeUnsupported("array alias into subscript")
                    scope.aliases[t.id] = val
                else:
                    self._store(t, scope, "=", val)
            return
        self._store(tgt, scope, "=", lambda: self._cx(st.value, scope))


def lower_loop(j: int, ir, specs: List["_ArgSpec"], lit: lower.Literals,
               ft: str) -> LoweredLoop:
    """Loop ``j``'s kernel ``ir`` over its argument ``specs``, resolved
    to C text at compute type ``ft`` in one pass."""
    return _Lowering(j, ir, specs, lit, ft).run()


# ----------------------------------------------------------------------
# Verdicts
# ----------------------------------------------------------------------
def _writes(specs):
    """The mapped arguments, and the slots written through a map and
    directly."""
    mapped = [s for s in specs if s.kind in ("indirect", "vector")]
    return (mapped, {s.slot for s in mapped if s.access.writes},
            {s.slot for s in specs
             if s.kind == "direct" and s.access.writes})


def _rereads(specs, lowered: LoweredLoop, ind_w: set) -> bool:
    """Does the loop read a Dat it writes through a map: through an
    argument (other than a vector ``INC``'s own zeroed accumulator), or
    in the body, by value, through the written argument itself?"""
    return any(
        s.slot in ind_w and (
            s.kind == "direct"
            or s.access in (Access.READ, Access.RW)
            or (s.kind == "vector" and s.access is not Access.INC)
        )
        for s in specs
    ) or any(specs[k].kind == "indirect" and specs[k].access.writes
             for k in lowered.value_reads)


def loop_verdict(specs, lowered: LoweredLoop, n: int,
                 facet: Callable[[], OwnerRanges]) -> LoopVerdict:
    """How a threaded TU runs a loop of ``n`` elements; ``facet`` gives
    its owner ranges (computed only for a loop that could use them)."""
    serial = partial(LoopVerdict, "serial")
    if any(s.kind == "gwrite" for s in specs):
        return serial("scalar loop")
    if n < THREAD_MIN_ELEMENTS:
        return serial(f"{n} elements < {THREAD_MIN_ELEMENTS}")
    reducing = any(s.kind == "gred" for s in specs)
    if reducing and lowered.updates is None:
        return serial("reduction not once per element")
    mapped, ind_w, dir_w = _writes(specs)
    if not ind_w:
        if any(s.slot in dir_w for s in mapped):
            return serial("reads a Dat it writes, through a map")
        return LoopVerdict("direct")
    if dir_w:
        return serial("direct and indirect writes")
    if reducing:
        return serial("reduction in an owner loop")
    if _rereads(specs, lowered, ind_w):
        return serial("reads a Dat it writes indirectly")
    ranges = facet()
    if ranges.dup > OWNER_MAX_DUP:
        return serial("non-local", ranges)
    return LoopVerdict("owner", facet=ranges)


def lane_verdict(specs, lowered: LoweredLoop, n: int,
                 columns: bool) -> LaneVerdict:
    """How a loop of ``n`` elements maps onto vector lanes; ``columns``:
    its reductions go to per-element columns (a ``direct`` thread
    verdict), which makes them lane-safe."""
    scalar = partial(LaneVerdict, "scalar")
    if any(s.kind == "gwrite" for s in specs):
        return scalar("scalar loop")
    if n < THREAD_MIN_ELEMENTS:
        return scalar(f"{n} elements < {THREAD_MIN_ELEMENTS}")
    if any(s.kind == "gred" for s in specs) and not columns:
        return scalar("reduction across elements")
    mapped, ind_w, dir_w = _writes(specs)
    if not mapped:
        # A stream of rows: bound by memory traffic, and a third of
        # a lowered airfoil step's build time when vectorized.
        return scalar("no gather")
    if any(s.slot in dir_w for s in mapped):
        return scalar("reads a Dat it writes, through a map")
    if not ind_w:
        return LaneVerdict("simd")
    if any(s.ctype != lowered.ft for s in mapped if s.access.writes):
        return scalar("non-floating store through a map")
    if _rereads(specs, lowered, ind_w):
        return scalar("reads a Dat it writes indirectly")
    if any(st.depth and specs[st.argpos].kind == "indirect"
           for st in lowered.stores):
        return scalar("store through a map under a branch")
    return LaneVerdict("packet")


# ----------------------------------------------------------------------
# The C printer
# ----------------------------------------------------------------------
def _red(j: int, spec: _ArgSpec) -> str:
    return f"kc_red{j}_{spec.slot}"


def _addr(spec: _ArgSpec, row: str, comp: int) -> str:
    if spec.layout == "soa":
        off = comp * spec.extent
        idx = f"{row} + {off}" if off else row
    elif spec.dim == 1:
        idx = row
    else:
        idx = f"{row} * {spec.dim} + {comp}"
    return f"d{spec.slot}[{idx}]"


class _Loop:
    """One bound loop of a chain: its argument specs and lowered body
    (built once, at construction), the verdicts :func:`_plan_chain`
    reaches and the slots they take, and its C."""

    def __init__(self, j: int, bl, ptab: _PointerTable) -> None:
        self.j = j
        self.bl = bl
        self.verdict = LoopVerdict("serial", "unthreaded TU")
        self.lanes = LaneVerdict("scalar", "unclassified")
        self.own_slot: Optional[int] = None
        self.col_slots: Dict[int, int] = {}
        try:
            ir = kernel_ir(bl.kernel)
        except UnvectorizableKernel as exc:
            raise NativeUnsupported(str(exc)) from exc
        if len(ir.params) != len(bl.args):
            raise NativeUnsupported(
                f"{len(ir.params)} params vs {len(bl.args)} loop arguments")
        self.specs = [_arg_spec(arg, j, i, ptab)
                      for i, arg in enumerate(bl.args)]
        #: (argpos, slot) for every reduction-global argument.
        self.red_args = [(i, s.slot) for i, s in enumerate(self.specs)
                         if s.kind == "gred"]
        # One uniform floating compute type per loop.  NumPy's weak
        # scalars keep a float32 kernel in float32 end to end; a loop
        # mixing float32 and float64 arguments would promote mid-kernel
        # in ways C can't mirror cheaply — punt to the fallback.
        ftypes = {s.ctype for s in self.specs if s.ctype in ("double", "float")}
        if len(ftypes) > 1:
            raise NativeUnsupported("mixed float32/float64 arguments")
        self.ft = ftypes.pop() if ftypes else "double"
        self.lit = lower.Literals("float32" if self.ft == "float"
                                  else "float64")
        self.lowered = lower_loop(j, ir, self.specs, self.lit, self.ft)

    # -- verdicts ---------------------------------------------------------
    def classify(self, ptab: _PointerTable) -> None:
        """Decide how a threaded TU runs this loop; an ``owner`` loop
        takes a facet slot, a threaded reduction a column slot each."""
        v = self.verdict = loop_verdict(self.specs, self.lowered, self.bl.n,
                                        self._owner_facet)
        if v.kind == "owner":
            self.own_slot = ptab.owner(v.facet.bounds, self.j)
        elif v.kind == "direct":
            for i, (argpos, _) in enumerate(self.red_args):
                self.col_slots[argpos] = ptab.column(
                    self.ft, i, self.bl.n * self.specs[argpos].dim
                )

    def _owner_facet(self) -> OwnerRanges:
        """The plan's owner facet, or one computed for this loop when
        its plan was built for other written columns."""
        bl = self.bl
        racing = [(a.map, a.index) for a in bl.args if a.races]
        plan = getattr(bl, "plan", None)
        if plan is not None and {(m._uid, i) for m, i in plan._racing} \
                == {(m._uid, i) for m, i in racing}:
            return plan.owner_ranges(OWNER_CHUNKS, bl.n)
        return owner_ranges(racing, bl.n, 0, OWNER_CHUNKS)

    # -- sinks ----------------------------------------------------------
    def _guards(self) -> Tuple[Dict[int, int], List[int]]:
        """An owner loop's guard group per argument written through a
        map, and each group's target-set extent."""
        guard_of: Dict[int, int] = {}
        extents: List[int] = []
        if self.verdict.kind == "owner":
            for k, s in enumerate(self.specs):
                if s.kind in ("indirect", "vector") and s.access.writes:
                    if s.targets not in extents:
                        extents.append(s.targets)
                    guard_of[k] = extents.index(s.targets)
        return guard_of, extents

    def _owned(self, argpos: int, row: str) -> str:
        """C condition under which an owner chunk stores through
        ``row`` of a written mapped argument ("" when not guarded)."""
        g = self._guard_of.get(argpos)
        return "" if g is None else f"{row} >= kc_lo{g} && {row} < kc_hi{g}"

    def _col_ref(self, argpos: int, comp: int) -> str:
        dim = self.specs[argpos].dim
        idx = "e" if dim == 1 else f"e * {dim} + {comp}"
        return f"kc_col{self.col_slots[argpos]}[{idx}]"

    def _sink(self, st: Store) -> str:
        """``st`` into the sink this loop's shape needs: a reduction
        column, a packet column (kept for the ordered scatter), a store
        under its owner guard, or the plain store."""
        if st.operand is not None and self.col_slots:
            return f"{self._col_ref(st.argpos, st.comp)} = {st.operand};"
        if self.lanes.kind == "packet" \
                and self.specs[st.argpos].kind == "indirect":
            self._sites.append(st)
            return f"kc_s{len(self._sites) - 1}[kc_l] = {st.value};"
        return self._guarded(st, st.value)

    def _guarded(self, st: Store, value: str) -> str:
        """``st`` storing ``value``, under its owner guard when through
        a map (a vector argument's stores go to its private ``v<k>``)."""
        owned = self.specs[st.argpos].kind == "indirect" \
            and self._owned(st.argpos, f"i{st.argpos}")
        guard = f"if ({owned}) " if owned else ""
        return f"{guard}{st.lvalue} {st.op} {value};"

    def _row(self, k: int, ind: str) -> str:
        """Indirect argument ``k``'s row index ``i<k>``."""
        spec = self.specs[k]
        return (f"{ind}const i64 i{k} = m{spec.map_slot}"
                f"[e * {spec.arity} + {spec.map_index}];")

    def _print_block(self, items: list, ind: str, out: List[str]) -> None:
        for item in items:
            if isinstance(item, str):
                out.append(ind + item)
            elif isinstance(item, Store):
                out.append(ind + self._sink(item))
            else:
                out.append(f"{ind}if {item.cond} {{")
                self._print_block(item.body, ind + "    ", out)
                if item.orelse is not None:
                    out.append(f"{ind}}} else {{")
                    self._print_block(item.orelse, ind + "    ", out)
                out.append(f"{ind}}}")

    # -- whole-loop printing ---------------------------------------------
    def emit(self) -> List[str]:
        bl = self.bl
        owner = self.verdict.kind == "owner"
        lanes = self.lanes.kind
        self._guard_of, extents = self._guards()
        #: Packet loop: the stores through maps, in program order.
        self._sites: List[Store] = []
        out: List[str] = []
        lowered = "" if lanes == "scalar" else f", {self.lanes}"
        out.append(
            f"/* ---- loop {self.j}: {bl.kernel.name} over "
            f"[0, {bl.n}){lowered} ---- */"
        )
        for argpos, slot in self.red_args:
            spec = self.specs[argpos]
            out.append(f"static {self.ft} {_red(self.j, spec)}[{spec.dim}];")
        chunk = ", i64 kc_c, i64 kc_k" if owner else ""
        out.append(
            f"static void kc_loop{self.j}(void **P, i64 lo, i64 hi{chunk})"
        )
        out.append("{")

        # One typed pointer local per distinct pointer-table slot: [type,
        # written] of the data (``d``) and Global (``g``) slots, and the
        # map tables (4-byte, core.map.MAP_DTYPE; a row index widens to
        # i64 where it is read).
        ptrs: Dict[int, list] = {}
        for s in self.specs:
            if s.kind != "gred":
                p = ptrs.setdefault(s.slot, ["g" if s.kind[0] == "g" else "d",
                                             s.ctype, False])
                p[2] = p[2] or s.access.writes
            if s.map_slot is not None:
                ptrs[s.map_slot] = ["m", "int", False]
        for slot, (pfx, ctype, written) in sorted(ptrs.items()):
            const = "" if written else "const "
            out.append(f"    {const}{ctype} *{pfx}{slot} = "
                       f"({const}{ctype} *)P[{slot}];")
        for argpos, slot in self.col_slots.items():
            out.append(
                f"    {self.ft} *kc_col{slot} = ({self.ft} *)P[{slot}];"
            )
        if owner:
            out.append("    /* chunk kc_c of kc_k stores only into the "
                       "targets it owns */")
        for g, extent in enumerate(extents):
            out.append(
                f"    const i64 kc_lo{g} = kc_c * {extent} / kc_k, "
                f"kc_hi{g} = (kc_c + 1) * {extent} / kc_k;"
            )
        body: List[str] = []
        ind = "            " if lanes == "packet" else "        "

        body.extend(self._row(k, ind) for k, spec in enumerate(self.specs)
                    if spec.kind == "indirect")
        # Vector-argument gathers (copies, exactly like scalar_views);
        # unrolled across lanes, so each slot is a scalar of the lane,
        # and in a scalar loop up to UNROLL_MAX_VALUES values.
        for k, spec in enumerate(self.specs):
            if spec.kind != "vector":
                continue
            size = spec.arity * spec.dim
            if spec.access is Access.INC:
                zero = self.lit.c(0.0)
                body.append(f"{ind}{self.ft} v{k}[{size}] = {{{zero}}};")
                continue
            body.append(f"{ind}{self.ft} v{k}[{size}];")
            body.extend(self._rows(
                k, ind, lanes != "scalar" or size <= UNROLL_MAX_VALUES, True,
                lambda row, i, k=k, spec=spec: [
                    f"v{k}[{i(c)}] = {_addr(spec, row, c)};"
                    for c in range(spec.dim)]))

        # Scalar locals (pre-declared: branch assignments stay visible).
        if self.lowered.locals:
            body.append(ind + " ".join(
                f"{self.ft} {name};" for name in self.lowered.locals))
        self._print_block(self.lowered.body, ind, body)

        # Writebacks in argument order (run_scalar_element's order); a
        # packet's INC accumulators go to columns for the scatter.
        for k in self._written_vectors():
            if lanes == "packet":
                body.extend(f"{ind}kc_v{k}[{i}][kc_l] = v{k}[{i}];" for i in
                            range(self.specs[k].arity * self.specs[k].dim))
            else:
                body.extend(self._writeback(k, ind, packet=False))
        if lanes == "packet":
            out.extend(self._packet_loop(body))
        else:
            if lanes == "simd":
                out.append("#pragma omp simd")
            out.append("    for (i64 e = lo; e < hi; ++e) {")
            out.extend(body)
            out.append("    }")
        out.append("}")

        # Reduction plumbing: start, fold into the Global, hand over
        # the raw partial (eager dispatch folds it).
        plumbing = {"init(void)": [], "fold(void **P)": [],
                    "partial(void **P)": []}
        maxlit = "FLT_MAX" if self.ft == "float" else "DBL_MAX"
        for argpos, slot in self.red_args:
            red = _red(self.j, self.specs[argpos])
            acc = self.bl.args[argpos].access.name
            ident = {"INC": self.lit.c(0.0), "MIN": maxlit,
                     "MAX": f"(-{maxlit})"}[acc]
            for c in range(self.specs[argpos].dim):
                comb = (f"g[{c}] += {red}[{c}];" if acc == "INC" else
                        f"g[{c}] = kc_f{acc.lower()}{self.lit.sfx}"
                        f"(g[{c}], {red}[{c}]);")
                plumbing["init(void)"].append(f"    {red}[{c}] = {ident};")
                plumbing["fold(void **P)"].append(
                    f"    {{ {self.ft} *g = ({self.ft} *)P[{slot}]; {comb} }}")
                plumbing["partial(void **P)"].append(
                    f"    (({self.ft} *)P[{slot}])[{c}] = {red}[{c}];")
        for sig, lines in plumbing.items() if self.red_args else ():
            out += [f"static void kc_loop{self.j}_{sig}", "{", *lines, "}"]
        if self.col_slots:
            out.extend(self._column_fold())
        out.append("")
        return out

    def _written_vectors(self) -> List[int]:
        return [k for k, s in enumerate(self.specs)
                if s.kind == "vector" and s.access.writes]

    def _rows(self, k: int, ind: str, named: bool, declare: bool,
              lines: Callable) -> List[str]:
        """Vector argument ``k`` row by row, each row's ``lines(row,
        index)`` (``index(c)``: component ``c``'s position in ``v<k>``)
        under its owner guard: unrolled with row ``l``'s index a
        ``named`` ``kc_r<k>_<l>`` (declared here if ``declare``), or a
        loop over rows ``r``."""
        spec = self.specs[k]
        out: List[str] = []
        if named:
            for l in range(spec.arity):
                row = f"kc_r{k}_{l}"
                if declare:
                    out.append(f"{ind}const i64 {row} = "
                               f"m{spec.map_slot}[e * {spec.arity} + {l}];")
                body = lines(row, lambda c: l * spec.dim + c)
                owned = self._owned(k, row)
                if owned:
                    body = [f"if ({owned}) {{",
                            *(f"    {x}" for x in body), "}"]
                out.extend(ind + x for x in body)
            return out
        out.append(f"{ind}for (int l = 0; l < {spec.arity}; ++l) {{")
        out.append(f"{ind}    const i64 r = m{spec.map_slot}"
                   f"[e * {spec.arity} + l];")
        owned = self._owned(k, "r")
        if owned:
            out.append(f"{ind}    if (!({owned})) continue;")
        out.extend(f"{ind}    {x}" for x in
                   lines("r", lambda c: f"l * {spec.dim} + {c}"))
        out.append(f"{ind}}}")
        return out

    def _writeback(self, k: int, ind: str, packet: bool) -> List[str]:
        """Vector argument ``k``'s writeback: from the lane's packet
        column in a packet loop's scatter, else from ``v<k>``, unrolled
        into the gather's named rows (an ``INC`` has no gather and names
        its own) up to :data:`UNROLL_MAX_VALUES` values."""
        spec = self.specs[k]
        op = "+=" if spec.access is Access.INC else "="
        src = "kc_v{}[{}][kc_l]" if packet else "v{}[{}]"
        return self._rows(
            k, ind, not packet and spec.arity * spec.dim <= UNROLL_MAX_VALUES,
            spec.access is Access.INC,
            lambda row, i: [f"{_addr(spec, row, c)} {op} {src.format(k, i(c))};"
                            for c in range(spec.dim)])

    def _packet_loop(self, body: List[str]) -> List[str]:
        """The element loop of a packet loop around ``body`` (the lane
        code, whose stores through maps went to packet columns), and
        the ordered scatter: for each element, ascending, the body's
        stores through maps, then the vector writebacks."""
        ind = "            "
        cols = [f"kc_s{n}[{PACKET}]" for n in range(len(self._sites))]
        cols += [f"kc_v{k}[{self.specs[k].arity * self.specs[k].dim}]"
                 f"[{PACKET}]" for k in self._written_vectors()]
        scatter: List[str] = []
        rows: set = set()
        for n, st in enumerate(self._sites):
            if st.argpos not in rows:
                rows.add(st.argpos)
                scatter.append(self._row(st.argpos, ind))
            scatter.append(ind + self._guarded(st, f"kc_s{n}[kc_l]"))
        for k in self._written_vectors():
            scatter.extend(self._writeback(k, ind, packet=True))
        return [
            f"    for (i64 kc_e = lo; kc_e < hi; kc_e += {PACKET}) {{",
            f"        const int kc_n = hi - kc_e < {PACKET} ? "
            f"(int)(hi - kc_e) : {PACKET};",
            *([f"        {self.ft} {', '.join(cols)};"] if cols else []),
            "#pragma omp simd",
            "        for (int kc_l = 0; kc_l < kc_n; ++kc_l) {",
            "            const i64 e = kc_e + kc_l;",
            *body,
            "        }",
            "        /* ordered scatter: elements ascending, each element's",
            "         * stores in program order */",
            "        for (int kc_l = 0; kc_l < kc_n; ++kc_l) {",
            "            const i64 e = kc_e + kc_l;",
            *scatter,
            "        }",
            "    }",
        ]

    def _column_fold(self) -> List[str]:
        """``kc_loopJ_cfold``: the reduction updates replayed over the
        per-element columns in element order — the serial loop's
        accumulator operations, one for one."""
        out = [
            f"static void kc_loop{self.j}_cfold(void **P, i64 lo, i64 hi)",
            "{",
        ]
        for slot in self.col_slots.values():
            out.append(
                f"    const {self.ft} *kc_col{slot} = "
                f"(const {self.ft} *)P[{slot}];"
            )
        out.append("    for (i64 e = lo; e < hi; ++e) {")
        for argpos, comp, op, operand_first in self.lowered.updates:
            red = f"{_red(self.j, self.specs[argpos])}[{comp}]"
            col = self._col_ref(argpos, comp)
            if isinstance(op, str):
                out.append(f"        {red} {op} {col};")
            else:
                args = (col, red) if operand_first else (red, col)
                out.append(f"        {red} = {self.lit.spell(op, *args)};")
        return out + ["    }", "}"]

    # -- threaded-TU driver lines ----------------------------------------
    def run_case(self) -> str:
        """``kc_loop_run``'s case: the loop on one thread, any range."""
        j = self.j
        if self.verdict.kind == "owner":
            return f"    case {j}: kc_loop{j}(P, lo, hi, 0, 1); break;"
        if self.col_slots:
            return (f"    case {j}: kc_loop{j}(P, lo, hi); "
                    f"kc_loop{j}_cfold(P, lo, hi); break;")
        return f"    case {j}: kc_loop{j}(P, lo, hi); break;"

    def team_lines(self) -> List[str]:
        """This loop inside the team: a worksharing loop over chunks,
        or one thread; either ends in the team barrier."""
        j, bl, v = self.j, self.bl, self.verdict
        k = OWNER_CHUNKS
        out = [f"    /* loop {j}: {bl.kernel.name}, {v.label} */"]
        serial_reds = []
        if v.kind == "serial":
            call = f"kc_loop{j}(P, 0, {bl.n});"
            if not self.red_args:
                return out + ["#pragma omp single", f"    {call}"]
            serial_reds = [call]
        else:
            out.append("#pragma omp for schedule(dynamic, 1)")
            out.append(f"    for (i64 kc_c = 0; kc_c < {k}; ++kc_c)")
            if v.kind == "owner":
                own = f"((const i64 *)P[{self.own_slot}])"
                out.append(f"        kc_loop{j}(P, {own}[2 * kc_c], "
                           f"{own}[2 * kc_c + 1], kc_c, {k});")
                return out
            out.append(f"        kc_loop{j}(P, kc_c * {bl.n} / {k}, "
                       f"(kc_c + 1) * {bl.n} / {k});")
            if not self.red_args:
                return out
            serial_reds = [f"kc_loop{j}_cfold(P, 0, {bl.n});"]
        return out + [
            "#pragma omp single",
            "    {",
            f"        kc_loop{j}_init();",
            *(f"        {line}" for line in serial_reds),
            f"        kc_loop{j}_fold(P);",
            "    }",
        ]


#: The ``kc_*`` semantic shims, once per compute type: ``{0}``-``{2}``
#: are the comments the ``double`` set carries.
_SHIMS = """\
{0}static inline {t} kc_fmin{f}({t} a, {t} b)
{{ return (a < b || isnan(a)) ? a : b; }}
static inline {t} kc_fmax{f}({t} a, {t} b)
{{ return (a > b || isnan(a)) ? a : b; }}
{1}static inline {t} kc_pymin{f}({t} a, {t} b)
{{ return (b < a) ? b : a; }}
static inline {t} kc_pymax{f}({t} a, {t} b)
{{ return (b > a) ? b : a; }}
{2}static {t} kc_pow{f}({t} x, {t} y)
{{
    return pow{f}(x, y);
}}
"""
_PREAMBLE = (
    "#include <math.h>\n#include <float.h>\n\ntypedef long long i64;\n\n"
    + _SHIMS.format(
        "/* np.minimum / np.maximum semantics (NaN-propagating, "
        "first-wins). */\n",
        "/* Python builtin min/max semantics (second-wins ties, NaN "
        "quirks). */\n",
        "/* numpy scalar ``**`` is plain libm pow() — no array-style fast "
        "paths. */\n", t="double", f="")
    + _SHIMS.format(
        "/* Single-precision twins for float32 (Volna) loops. */\n", "", "",
        t="float", f="f"))


# ----------------------------------------------------------------------
# Chain-level emission
# ----------------------------------------------------------------------
_OMP_PREAMBLE = """\
/* Owner-computes threads: one OpenMP team per call; without -fopenmp
 * the same source runs every chunk on one thread, with the same bits. */
#ifdef _OPENMP
#include <omp.h>
#endif
static int kc_team = 1;
int kc_threads(void)
{
    return kc_team;
}
"""

#: Inside a parallel region: record the team size (``kc_threads``).
_TEAM_SIZE = [
    "#ifdef _OPENMP",
    "#pragma omp master",
    "        kc_team = omp_get_num_threads();",
    "#endif",
]


def _plan_chain(loops: Sequence, threads: bool):
    """Pointer table and planned loops (:class:`_Loop`) of one chain.

    Each loop is lowered once; with ``threads`` every loop gets a thread
    verdict (:func:`loop_verdict`), and the TU is threaded when any is
    not ``serial``.  Without, or when no loop qualifies, no slot is
    added and the TU is the plain serial one, byte for byte.  Every
    loop then gets its lane verdict (:func:`lane_verdict`)."""
    ptab = _PointerTable()
    planned = []
    for j, bl in enumerate(loops):
        try:
            planned.append(_Loop(j, bl, ptab))
        except NativeUnsupported as exc:
            raise NativeUnsupported(f"kernel {bl.kernel.name}: {exc}") \
                from exc
    if threads:
        for lp in planned:
            lp.classify(ptab)
    for lp in planned:
        lp.lanes = lane_verdict(lp.specs, lp.lowered, lp.bl.n,
                                bool(lp.col_slots))
    threaded = any(lp.verdict.kind != "serial" for lp in planned)
    return ptab, planned, threaded


def emit_chain_source(loops: Sequence, name: str = "chain",
                      repeat=None, threads: bool = True, plan=None) -> str:
    """One C translation unit for a whole loop chain.

    ``loops`` is any sequence of bound-loop-likes exposing ``kernel``,
    ``args`` and ``n``, each loop running elements ``[0, n)``
    (``CompiledChain.loops``, or ad-hoc records for a single eager
    loop).  Raises :class:`NativeUnsupported`
    when any loop falls outside the translatable subset.

    With ``repeat`` (a :class:`~repro.core.chain.Repeat` whose Globals
    the loops store into) the TU additionally carries the chain's back
    edge, ``kc_run_repeat``; every other line is the same text.

    With ``threads`` (the default), a chain with a loop of at least
    :data:`THREAD_MIN_ELEMENTS` elements that can run owner-computes
    gets a threaded ``kc_run_fused`` / ``kc_run_repeat``: one OpenMP
    team per call, each loop a worksharing loop over fixed chunks or on
    one thread (see :class:`LoopVerdict`).  ``kc_loop_run`` (eager
    dispatch) stays single-threaded either way.  There is no tile
    executor: the native backend runs a tiled request untiled, as one
    ``kc_run_fused`` / ``kc_run_repeat`` call.  Walking tiles through
    ``kc_loop_run`` instead read 0.65–1.03x of that call on
    ``airfoil_large``, 0.56–0.70x on ``volna_scrambled`` and
    0.67–0.71x on ``aero_solve`` (``bench_e2e --trace 1``, 2 vCPU).

    ``plan`` is :func:`_plan_chain`'s result for these ``loops`` and
    ``threads``, when the caller already has it (it also needs the
    pointer table and verdicts); otherwise the chain is planned here.

    A loop of at least :data:`THREAD_MIN_ELEMENTS` elements, threaded
    or not, is also lowered across elements where it can be
    (:class:`LaneVerdict`); its header comment names how.
    """
    ptab, planned, threaded = (
        _plan_chain(loops, threads) if plan is None else plan
    )
    parts: List[str] = [
        f"/* Generated by repro.kernelc.native — {name}: "
        f"{len(planned)} loop(s). */",
        _PREAMBLE,
    ]
    if threaded:
        parts.append(_OMP_PREAMBLE)
    if ptab.recipe:
        parts.append("/* pointer table:")
        for i, comment in enumerate(ptab.comments):
            parts.append(f" *   P[{i}] = {comment}")
        parts.append(" */")
        parts.append("")
    for lp in planned:
        parts.extend(lp.emit())

    runs, inits, partials, fused = [], [], [], []
    for lp in planned:
        j = lp.j
        runs.append(lp.run_case())
        call = f"    kc_loop{j}(P, 0, {lp.bl.n});"
        if lp.red_args:
            inits.append(f"    case {j}: kc_loop{j}_init(); break;")
            partials.append(f"    case {j}: kc_loop{j}_partial(P); break;")
            fused += [f"    kc_loop{j}_init();", call, f"    kc_loop{j}_fold(P);"]
        else:
            fused.append(call)
    for head, cases, unused in (
            ("kc_loop_run(i64 j, void **P, i64 lo, i64 hi)", runs, ()),
            ("kc_loop_init(i64 j)", inits, ("j",)),
            ("kc_loop_partial(i64 j, void **P)", partials, ("j", "P"))):
        body = (["    switch (j) {", *cases, "    default: break;", "    }"]
                if cases else [f"    (void){v};" for v in unused])
        parts += [f"void {head}", "{", *body, "}"]
    if threaded:
        parts += [
            "/* Whole-chain replay by one team: loops in program order, each",
            " * ending in the team barrier; reductions folded in element "
            "order. */",
            "static void kc_team_run(void **P)", "{",
            *(line for lp in planned for line in lp.team_lines()), "}",
            "void kc_run_fused(void **P)", "{", "#pragma omp parallel",
            "    {", *_TEAM_SIZE, "        kc_team_run(P);", "    }", "}",
        ]
    else:
        parts += [
            "/* Whole-chain replay: loops in program order, each",
            " * reduction folded before the next loop can read it. */",
            "void kc_run_fused(void **P)", "{", *fused, "}",
        ]
    if repeat is not None:
        parts.extend(_emit_repeat(repeat, ptab, threaded))
    parts.append("")
    return "\n".join(parts)


def _emit_repeat(repeat, ptab: _PointerTable, threaded: bool) -> List[str]:
    """``kc_run_repeat``: the chain with its back edge, in one call."""
    def slot_and_ctype(role: str) -> Tuple[int, str]:
        data = getattr(repeat, role)._data
        slot = ptab._slots.get(id(data))
        if slot is None:
            raise NativeUnsupported(
                f"repeat {role}= Global is not an argument of the chain"
            )
        return slot, _CTYPES[np.dtype(data.dtype)]

    fslot, ftype = slot_and_ctype("until")
    rslot, rtype = slot_and_ctype("record")
    # volatile: the flag and the record are stored by kc_run_fused
    # through other pointers into the same table.
    head = [
        "/* The back edge: replay the chain until P[%d][0] is non-zero" % fslot,
        " * after a trip, at most max_trips times (at least once);",
        " * hist[t] = P[%d][0] after trip t.  Returns the trips run. */" % rslot,
        "i64 kc_run_repeat(void **P, i64 max_trips, void *hist)",
        "{",
        f"    const volatile {ftype} *flag = "
        f"(const volatile {ftype} *)P[{fslot}];",
        f"    const volatile {rtype} *record = "
        f"(const volatile {rtype} *)P[{rslot}];",
        f"    {rtype} *h = ({rtype} *)hist;",
    ]
    if not threaded:
        return head + [
            "    i64 t = 0;",
            "    do {",
            "        kc_run_fused(P);",
            "        h[t++] = record[0];",
            "    } while (flag[0] == 0 && t < max_trips);",
            "    return t;",
            "}",
        ]
    # One team for every trip.  Each thread reads the flag after the
    # trip's last barrier and before the barrier closing the record
    # store, so no thread can start the next trip (and store the flag)
    # while another has yet to test it.
    return head + [
        "    i64 trips = 0;",
        "#pragma omp parallel",
        "    {",
        *_TEAM_SIZE,
        "        i64 t = 0;",
        "        int done;",
        "        do {",
        "            kc_team_run(P);",
        "            done = flag[0] != 0;",
        "#pragma omp single",
        "            h[t] = record[0];",
        "            ++t;",
        "        } while (!done && t < max_trips);",
        "#pragma omp master",
        "        trips = t;",
        "    }",
        "    return trips;",
        "}",
    ]


# ----------------------------------------------------------------------
# Executable chain programs
# ----------------------------------------------------------------------
class NativeChainProgram:
    """A compiled chain plus its pointer-table recipe.

    The shared object is pure code — all runtime state arrives through
    the ``void **`` table, which every call fills from the live arrays
    of the loops it is handed (:meth:`run_fused`, :meth:`run_eager`):
    slot by slot, from the recipe's ``(loop, argument, kind)``.  So one
    cached ``.so`` serves any process, and one program any number of
    chains of its shape; a built program keeps no loop's arrays
    (``loops`` is empty, or for an eager program names only the
    kernel and the extent).
    """

    def __init__(self, source: str, recipe: List[Tuple[int, int, str]],
                 buffers: Optional[Dict[int, object]] = None,
                 verdicts: Sequence[Tuple[str, int, str, str]] = (),
                 red_args: Sequence[List[Tuple[int, int]]] = ()) -> None:
        self.source = source
        self.loops: tuple = ()
        self.recipe = list(recipe)
        #: ``(argpos, slot)`` of each loop's reduction Globals.
        self.red_args = list(red_args)
        #: ``(kernel, elements, thread verdict, lane verdict)`` per loop
        #: (:class:`LoopVerdict`, :class:`LaneVerdict`).
        self.verdicts = list(verdicts)
        self.threaded = is_threaded(source)
        #: Slots of buffers the program owns: owner ranges, and the
        #: reduction columns, allocated here.
        self._buffers = {
            slot: np.empty(b[1], dtype=b[0]) if isinstance(b, tuple) else b
            for slot, b in (buffers or {}).items()
        }
        self.ffi, self.lib, self.key = load_native_library(source)
        self._ptab = self.ffi.new("void *[]", max(1, len(recipe)))

    def _recipe_array(self, slot: int, loops) -> np.ndarray:
        buffer = self._buffers.get(slot)
        if buffer is not None:
            return buffer
        j, i, kind = self.recipe[slot]
        arg = loops[j].args[i]
        if kind == "dat":
            return arg.dat._storage
        if kind == "map":
            return arg.map.values
        return arg.dat._data  # gbl

    def _refresh(self, loops,
                 overrides: Optional[Dict[int, np.ndarray]] = None) -> None:
        for slot in range(len(self.recipe)):
            arr = self._recipe_array(slot, loops)
            if overrides and slot in overrides:
                arr = overrides[slot]
            self._ptab[slot] = self.ffi.cast("void *", arr.ctypes.data)

    # -- replay entry points -------------------------------------------
    def run_fused(self, loops, repeat=None):
        """The whole chain over ``loops`` (bound loops of this program's
        shape) in one call; with ``repeat`` the whole *repeat* (a TU
        built with it): returns the record per trip."""
        self._refresh(loops)
        if repeat is None:
            self.lib.kc_run_fused(self._ptab)
            hist = None
        else:
            hist = np.empty(repeat.max_trips, dtype=repeat.record._data.dtype)
            trips = self.lib.kc_run_repeat(
                self._ptab, repeat.max_trips,
                self.ffi.cast("void *", hist.ctypes.data),
            )
            hist = hist[:trips].copy()
        if self.threaded:
            note_threads(int(self.lib.kc_threads()))
        return hist

    def run_loop(self, j: int, lo: int, hi: int) -> None:
        self.lib.kc_loop_run(j, self._ptab, lo, hi)

    def run_eager(self, args, reductions: Dict[int, np.ndarray]) -> None:
        """Single-loop eager entry: run loop 0 of this program over the
        given live ``args``, leaving raw reduction partials in the
        caller's ``reductions`` accumulators (``Backend.execute`` then
        folds them — one combine, exactly like every other backend)."""
        bl = _EagerLoop(None, tuple(args), 0)
        overrides = {
            slot: reductions[argpos]
            for argpos, slot in self.red_args[0]
            if argpos in reductions
        }
        self._refresh(loops=(bl,), overrides=overrides)
        if self.red_args[0]:
            self.lib.kc_loop_init(0)
        self.lib.kc_loop_run(0, self._ptab, 0, self.loops[0].n)
        if self.red_args[0]:
            self.lib.kc_loop_partial(0, self._ptab)


@dataclass(frozen=True)
class _EagerLoop:
    """Minimal bound-loop record for single-loop (eager) programs."""

    kernel: object
    args: tuple
    n: int


def build_chain_program(loops: Sequence, name: str = "chain",
                        repeat=None, threads: bool = True
                        ) -> NativeChainProgram:
    """Emit + compile one chain (``repeat``: with its back edge;
    ``threads``: see :func:`emit_chain_source`) into a program that
    runs any chain of the same shape.  Raises
    :class:`NativeUnsupported` on untranslatable kernels or compile
    failure."""
    plan = _plan_chain(loops, threads)
    source = emit_chain_source(loops, name=name, repeat=repeat,
                               threads=threads, plan=plan)
    ptab, planned, _ = plan
    verdicts = [(lp.bl.kernel.name, lp.bl.n, str(lp.verdict), str(lp.lanes))
                for lp in planned]
    return NativeChainProgram(source, ptab.recipe, ptab.buffers, verdicts,
                              [lp.red_args for lp in planned])


def build_eager_program(kernel, args, n: int) -> NativeChainProgram:
    """A one-loop program for eager ``par_loop`` dispatch.

    :meth:`~NativeChainProgram.run_eager` binds the caller's arguments
    on every call, so the program keeps only its slot recipe and ``n``
    — not the first call's Dats, which the backend's program cache
    would otherwise keep alive."""
    bl = _EagerLoop(kernel, tuple(args), int(n))
    program = build_chain_program([bl], name=f"eager:{kernel.name}",
                                  threads=False)
    program.loops = (_EagerLoop(kernel, (), bl.n),)
    return program
