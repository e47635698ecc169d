"""Native chain compilation: one C translation unit per loop chain.

The third kernelc emitter.  :mod:`repro.kernelc.scalar` specializes the
dispatch loop, :mod:`repro.kernelc.vector` derives batched NumPy
kernels; this module lowers a whole *traced loop chain* — every
:class:`~repro.core.chain.BoundLoop` of a
:class:`~repro.core.chain.CompiledChain` — into a single C translation
unit: per-element gathers, the scalar kernel body, and the scatters
fused into one native loop per chain member, with AoS/SoA index
arithmetic, map arities, set extents and closure constants baked into
the source text.  The TU is compiled once with the system C compiler
and loaded through cffi's ABI mode; runtime data arrives per run as a
flat ``void **`` pointer table, so the shared object itself is
position- and process-independent and can be cached on disk.

Determinism rationale
---------------------
The emitted C replays the *sequential* backend operation for
operation: elements execute in ascending order, every floating-point
expression maps to the exact machine operation NumPy's scalar path
performs (``+ - * /`` are IEEE double ops, ``np.sqrt`` is the
correctly-rounded ``sqrt``, ``np.minimum``/``np.maximum`` keep NumPy's
NaN/ordering rule, ``**`` is libm ``pow`` — numpy's scalar pow), and
the TU is compiled with ``-ffp-contract=off -fno-fast-math`` so the
compiler can neither fuse multiply-adds nor reassociate.  Native
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

Cache hierarchy
---------------
Source text is content-hashed (:func:`source_key`); compiled shared
objects live in memory per process and on disk under
:func:`native_cache_dir` keyed by that hash and the compile flags, so
warm processes skip the compiler entirely.  This is the sixth cache
kind surfaced by :meth:`repro.core.runtime.Runtime.stats`:
loop → plan → chain → tiled → kernelc → native.

Anything outside the translatable subset raises
:class:`NativeUnsupported`; the native backend then falls back (see
``backends/native.py``).
"""

from __future__ import annotations

import ast
import builtins
import hashlib
import inspect
import os
import re
import shutil
import subprocess
import tempfile
import textwrap
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.access import Access
from ..core.map import MAP_DTYPE
from ..core.plan import OwnerRanges, owner_ranges
from ..simd import intrinsics as _intrinsics
from ..simd import host_isa, isa_flags
from .cache import kernel_ir
from .ir import (
    SAssign,
    SAug,
    SFor,
    SIf,
    UnvectorizableKernel,
    function_namespace,
    is_lane_safe_helper,
)


class NativeUnsupported(Exception):
    """Kernel or chain outside the native emitter's C-translatable subset."""


# ----------------------------------------------------------------------
# C type / literal mapping
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
#: Identifiers the emitter itself generates inside a loop body.
_EMITTER_NAMES = frozenset({"e", "l", "r", "lo", "hi", "P", "NAN", "INFINITY"})
_GENERATED_RE = re.compile(r"^(?:[dmgv]\d+|i\d+|kc_\w+|h\d+_\w*)$")
_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _c_double(v) -> str:
    """An exact C literal for a Python/NumPy float (hex when needed)."""
    f = float(v)
    if f != f:
        return "NAN"
    if f == float("inf"):
        return "INFINITY"
    if f == float("-inf"):
        return "(-INFINITY)"
    if f == int(f) and abs(f) < 1e16:
        return repr(f)  # "3.0" — exact and readable
    return float.hex(f)  # C99 hex float literal, exact round-trip


def _c_float(v) -> str:
    """An exact ``float`` C literal: the value NumPy's weak-scalar
    promotion would use when this constant meets a float32 operand.
    The ``f`` suffix is load-bearing — without it the literal is a
    ``double`` and would silently promote the whole expression."""
    f = float(np.float32(v))
    if f != f:
        return "NAN"
    if f == float("inf"):
        return "INFINITY"
    if f == float("-inf"):
        return "(-INFINITY)"
    if f == int(f) and abs(f) < 1e7:
        return repr(f) + "f"
    return float.hex(f) + "f"


def _cident(name: str, taken: set) -> str:
    base = name if _IDENT_RE.match(name) else "loc"
    if base in _C_KEYWORDS or base in _EMITTER_NAMES or _GENERATED_RE.match(base):
        base += "_l"
    while base in taken:
        base += "_"
    taken.add(base)
    return base


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
    name: str


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
                        "aos", g.dim, gtype, g.name)
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
                        dat.layout, extent, ctype, dat.name)
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
                        arg.map.arity, -1, dat.layout, extent, ctype, dat.name)
    return _ArgSpec("indirect", slot, map_slot, arg.access, dat.dim,
                    arg.map.arity, int(arg.index), dat.layout, extent, ctype,
                    dat.name)


# ----------------------------------------------------------------------
# Name-resolution scope for the body translator
# ----------------------------------------------------------------------
@dataclass
class _Scope:
    ns: Dict[str, object]
    rename: Dict[str, str] = field(default_factory=dict)
    aliases: Dict[str, tuple] = field(default_factory=dict)
    loops: Dict[str, int] = field(default_factory=dict)
    params: Dict[str, int] = field(default_factory=dict)


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
#: Owner ranges re-running more than this share of a loop's elements
#: (a non-local numbering) leave the loop serial.
OWNER_MAX_DUP = 1.25

_RED_CALLS = frozenset(
    {np.minimum, np.maximum, builtins.min, builtins.max,
     _intrinsics.vmin, _intrinsics.vmax}
)


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


class _Unpacketable(Exception):
    """A store the ordered scatter cannot defer (raised while emitting)."""


def _stmt_nodes(st):
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
        yield from _stmt_nodes(inner)


# ----------------------------------------------------------------------
# Per-loop emitter
# ----------------------------------------------------------------------
class _LoopEmitter:
    """Translates one bound loop (kernel + concrete args) to C."""

    def __init__(self, j: int, bl, ptab: _PointerTable) -> None:
        self.j = j
        self.bl = bl
        self.verdict = LoopVerdict("serial", "unthreaded TU")
        #: Threaded-TU state set by :meth:`classify`: owner-guard group
        #: per written argument, reduction statements lowered to columns.
        self._guard_of: Dict[int, int] = {}
        self._extents: List[int] = []
        self._columns: Dict[int, Tuple[int, int, ast.expr]] = {}
        self.col_slots: Dict[int, int] = {}
        self.own_slot: Optional[int] = None
        self._value_reads: set = set()
        self.lanes = LaneVerdict("scalar", "unclassified")
        #: Packet emission: the body's stores through maps in program
        #: order, ``(argpos, comp, op)``, and the enclosing-branch depth.
        self._sites: List[Tuple[int, int, str]] = []
        self._branch = 0
        try:
            self.ir = kernel_ir(bl.kernel)
        except UnvectorizableKernel as exc:
            raise NativeUnsupported(
                f"kernel {bl.kernel.name}: {exc}"
            ) from exc
        if len(self.ir.params) != len(bl.args):
            raise NativeUnsupported(
                f"kernel {bl.kernel.name}: {len(self.ir.params)} params vs "
                f"{len(bl.args)} loop arguments"
            )
        self.specs = [
            _arg_spec(arg, j, i, ptab) for i, arg in enumerate(bl.args)
        ]
        #: (argpos, slot) for every reduction-global argument.
        self.red_args = [
            (i, s.slot) for i, s in enumerate(self.specs) if s.kind == "gred"
        ]
        # One uniform floating compute type per loop.  NumPy's weak
        # scalars keep a float32 kernel in float32 end to end; a loop
        # mixing float32 and float64 arguments would promote mid-kernel
        # in ways C can't mirror cheaply — punt to the fallback.
        ftypes = {s.ctype for s in self.specs if s.ctype in ("double", "float")}
        if len(ftypes) > 1:
            raise NativeUnsupported(
                f"kernel {bl.kernel.name}: mixed float32/float64 arguments"
            )
        self.ft = ftypes.pop() if ftypes else "double"
        self.sfx = "f" if self.ft == "float" else ""

    # -- threading classification ----------------------------------------
    def classify(self, ptab: _PointerTable) -> None:
        """Decide how a threaded TU runs this loop; an ``owner`` loop
        takes a facet slot, a threaded reduction a column slot each."""
        v = self.verdict = self._verdict()
        if v.kind == "owner":
            self.own_slot = ptab.owner(v.facet.bounds, self.j)
        elif v.kind == "direct":
            for i, (argpos, _) in enumerate(self.red_args):
                self.col_slots[argpos] = ptab.column(
                    self.ft, i, self.bl.n * self.specs[argpos].dim
                )

    def _verdict(self) -> LoopVerdict:
        def serial(reason: str, facet=None) -> LoopVerdict:
            return LoopVerdict("serial", reason, facet)

        bl = self.bl
        specs = self.specs
        n = bl.n
        if any(s.kind == "gwrite" for s in specs):
            return serial("scalar loop")
        if n < THREAD_MIN_ELEMENTS:
            return serial(f"{n} elements < {THREAD_MIN_ELEMENTS}")
        if self.red_args:
            columns = self._reduction_columns()
            if columns is None:
                return serial("reduction not once per element")
        mapped = [s for s in specs if s.kind in ("indirect", "vector")]
        ind_w = {s.slot for s in mapped if s.access.writes}
        dir_w = {s.slot for s in specs if s.kind == "direct"
                 and s.access.writes}
        if not ind_w:
            if any(s.slot in dir_w for s in mapped):
                return serial("reads a Dat it writes, through a map")
            self._columns = columns if self.red_args else {}
            return LoopVerdict("direct")
        if dir_w:
            return serial("direct and indirect writes")
        if self.red_args:
            return serial("reduction in an owner loop")
        if self._reads_scattered(ind_w):
            return serial("reads a Dat it writes indirectly")
        facet = self._owner_facet()
        if facet.dup > OWNER_MAX_DUP:
            return serial("non-local", facet)
        for k, s in enumerate(specs):
            if s.kind in ("indirect", "vector") and s.access.writes:
                extent = bl.args[k].map.to_set.size
                if extent not in self._extents:
                    self._extents.append(extent)
                self._guard_of[k] = self._extents.index(extent)
        return LoopVerdict("owner", facet=facet)

    def _reads_scattered(self, ind_w: set) -> bool:
        """Does the body read a Dat it writes through a map (other than
        through a vector ``INC``'s own zeroed accumulator)?  Emits the
        body once to see its value reads."""
        specs = self.specs
        if any(
            s.slot in ind_w and (
                s.kind == "direct"
                or s.access in (Access.READ, Access.RW)
                or (s.kind == "vector" and s.access is not Access.INC)
            )
            for s in specs
        ):
            return True
        self.emit()  # records the body's value reads of its arguments
        return any(specs[k].kind == "indirect" and specs[k].access.writes
                   for k in self._value_reads)

    # -- lowering across elements -----------------------------------------
    def classify_lanes(self) -> None:
        """Decide how the loop maps onto vector lanes.  Runs after the
        thread verdict: a reduction lowered to a column is lane-safe."""
        self.lanes = self._lane_verdict()

    def _lane_verdict(self) -> LaneVerdict:
        def scalar(reason: str) -> LaneVerdict:
            return LaneVerdict("scalar", reason)

        specs = self.specs
        if any(s.kind == "gwrite" for s in specs):
            return scalar("scalar loop")
        if self.bl.n < THREAD_MIN_ELEMENTS:
            return scalar(f"{self.bl.n} elements < {THREAD_MIN_ELEMENTS}")
        if self.red_args and not self._columns:
            return scalar("reduction across elements")
        mapped = [s for s in specs if s.kind in ("indirect", "vector")]
        if not mapped:
            # A stream of rows: bound by memory traffic, and a third of
            # a lowered airfoil step's build time when vectorized.
            return scalar("no gather")
        ind_w = {s.slot for s in mapped if s.access.writes}
        dir_w = {s.slot for s in specs if s.kind == "direct"
                 and s.access.writes}
        if any(s.slot in dir_w for s in mapped):
            return scalar("reads a Dat it writes, through a map")
        if not ind_w:
            return LaneVerdict("simd")
        if any(s.ctype != self.ft for s in mapped if s.access.writes):
            return scalar("non-floating store through a map")
        self.lanes = LaneVerdict("packet")
        try:
            if self._reads_scattered(ind_w):
                return scalar("reads a Dat it writes indirectly")
        except _Unpacketable as exc:
            return scalar(str(exc))
        return self.lanes

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

    def _reduction_columns(self):
        """``id(stmt) -> (argpos, comp, value)`` for the statements that
        update the loop's reductions, when each reduction component is
        updated by one top-level statement — ``g[c] += x`` / ``-=``, or
        ``g[c] = f(g[c], x)`` with ``f`` a min/max — and the reduction
        arguments appear nowhere else; ``None`` otherwise.  Only then is
        "store ``x`` per element, fold the column in element order" the
        same sequence of operations as the serial loop."""
        params = {self.ir.params[a]: a for a, _ in self.red_args}
        scope = _Scope(ns=self.ir.namespace)

        def component(node) -> Optional[Tuple[int, int]]:
            if isinstance(node, ast.Subscript) and isinstance(
                    node.value, ast.Name) and node.value.id in params:
                try:
                    return params[node.value.id], self._const_int(
                        node.slice, scope)
                except NativeUnsupported:
                    return None
            return None

        found: Dict[int, Tuple[int, int, ast.expr]] = {}
        expected = 0
        for st in self.ir.body:
            match = None
            if isinstance(st, SAug) and isinstance(st.op, (ast.Add, ast.Sub)):
                target = component(st.target)
                if target is not None:
                    match, refs = (*target, st.value), 1
            elif isinstance(st, SAssign) and len(st.targets) == 1 \
                    and isinstance(st.value, ast.Call) \
                    and len(st.value.args) == 2 and not st.value.keywords \
                    and self._callee(st.value.func, scope) in _RED_CALLS:
                target = component(st.targets[0])
                a, b = st.value.args
                if target is not None and (component(a), component(b)) in (
                        (target, None), (None, target)):
                    match = (*target, b if component(a) else a)
                    refs = 2
            if match is not None:
                if any(m[:2] == match[:2] for m in found.values()):
                    return None
                found[id(st)] = match
                expected += refs
        uses = sum(
            1 for st in self.ir.body for node in _stmt_nodes(st)
            if isinstance(node, ast.Name) and node.id in params
        )
        return found if uses == expected else None

    # -- owner guards and reduction columns -----------------------------
    def _owned(self, argpos: int, row: str) -> str:
        """C condition under which an owner chunk stores through
        ``row`` of a written mapped argument ("" when not guarded)."""
        g = self._guard_of.get(argpos)
        if g is None or self.verdict.kind != "owner":
            return ""
        return f"{row} >= kc_lo{g} && {row} < kc_hi{g}"

    def _col_ref(self, argpos: int, comp: int) -> str:
        dim = self.specs[argpos].dim
        idx = "e" if dim == 1 else f"e * {dim} + {comp}"
        return f"kc_col{self.col_slots[argpos]}[{idx}]"

    def _lit(self, v) -> str:
        return _c_float(v) if self.ft == "float" else _c_double(v)

    def _lit_np(self, v) -> str:
        """Literal for a NumPy-sourced constant.  A float64 *NumPy*
        scalar is strong under NEP 50 — meeting one would promote a
        float32 kernel to double mid-expression, which the uniform-type
        C body can't mirror."""
        if self.ft == "float" and isinstance(v, np.floating) \
                and v.dtype == np.float64:
            raise NativeUnsupported(
                "float64 numpy constant inside a float32 kernel"
            )
        return self._lit(v)

    # -- small helpers --------------------------------------------------
    def _buf(self, spec: _ArgSpec) -> str:
        if spec.kind == "gred":
            return self._red(spec)
        if spec.kind in ("gread", "gwrite"):
            return f"g{spec.slot}"
        return f"d{spec.slot}"

    def _red(self, spec: _ArgSpec) -> str:
        return f"kc_red{self.j}_{spec.slot}"

    def _addr(self, spec: _ArgSpec, row: str, comp: int) -> str:
        if spec.layout == "soa":
            off = comp * spec.extent
            idx = f"{row} + {off}" if off else row
        elif spec.dim == 1:
            idx = row
        else:
            idx = f"{row} * {spec.dim} + {comp}"
        return f"d{spec.slot}[{idx}]"

    # -- constant-index evaluation --------------------------------------
    def _const_int(self, node, scope: _Scope) -> int:
        if isinstance(node, ast.Constant) and isinstance(node.value, int) \
                and not isinstance(node.value, bool):
            return node.value
        if isinstance(node, ast.Name):
            if node.id in scope.loops:
                return scope.loops[node.id]
            v = scope.ns.get(node.id)
            if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
                return int(v)
            raise NativeUnsupported(f"non-constant index name {node.id!r}")
        if isinstance(node, ast.BinOp):
            lv = self._const_int(node.left, scope)
            rv = self._const_int(node.right, scope)
            if isinstance(node.op, ast.Add):
                return lv + rv
            if isinstance(node.op, ast.Sub):
                return lv - rv
            if isinstance(node.op, ast.Mult):
                return lv * rv
            if isinstance(node.op, ast.Mod):
                return lv % rv
            if isinstance(node.op, ast.FloorDiv):
                return lv // rv
            raise NativeUnsupported("unsupported index arithmetic")
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -self._const_int(node.operand, scope)
        raise NativeUnsupported(
            f"index expression {ast.dump(node)[:60]} is not compile-time "
            f"constant"
        )

    # -- subscript resolution -------------------------------------------
    def _resolve_access(self, node, scope: _Scope):
        """Resolve a (possibly chained) subscript.

        Returns one of
          ("lval", argpos, row_idx_or_None, comp)  — full param access
          ("alias", argpos, (idx,))                — partial vector-arg row
          ("elem", python_scalar)                  — closure array element
          ("nsarr", ndarray)                       — partial closure array
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
        idxs = [self._const_int(i, scope) for i in idx_nodes]

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
        needed = 2 if spec.kind == "vector" else 1
        if len(idxs) < needed:
            return ("alias", argpos, tuple(idxs))
        if len(idxs) > needed:
            raise NativeUnsupported(
                f"param {self.ir.params[argpos]}: too many subscripts"
            )
        if spec.kind == "vector":
            slot_i, comp = idxs
            if slot_i < 0:
                slot_i += spec.arity
            if comp < 0:
                comp += spec.dim
            if not (0 <= slot_i < spec.arity and 0 <= comp < spec.dim):
                raise NativeUnsupported("vector-arg subscript out of range")
            return ("lval", argpos, slot_i, comp)
        comp = idxs[0]
        if comp < 0:
            comp += spec.dim
        if not 0 <= comp < spec.dim:
            raise NativeUnsupported("component subscript out of range")
        return ("lval", argpos, None, comp)

    def _ns_access(self, arr: np.ndarray, idxs: List[int]):
        v = arr
        try:
            for i in idxs:
                v = v[i]
        except IndexError as exc:
            raise NativeUnsupported(f"constant-array index error: {exc}")
        if np.ndim(v) == 0:
            return ("elem", v)
        return ("nsarr", v)

    def _lvalue(self, argpos: int, slot_i, comp: int) -> str:
        spec = self.specs[argpos]
        if spec.kind == "direct":
            return self._addr(spec, "e", comp)
        if spec.kind == "indirect":
            return self._addr(spec, f"i{argpos}", comp)
        if spec.kind == "vector":
            return f"v{argpos}[{slot_i * spec.dim + comp}]"
        if spec.kind in ("gread", "gwrite"):
            return f"g{spec.slot}[{comp}]"
        return f"{self._red(spec)}[{comp}]"  # gred

    # -- expressions ----------------------------------------------------
    def _cx(self, node, scope: _Scope) -> str:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return "1.0" if node.value else "0.0"
            if isinstance(node.value, (int, float)):
                return self._lit(node.value)
            raise NativeUnsupported(f"constant {node.value!r}")
        if isinstance(node, ast.Name):
            name = node.id
            if name in scope.loops:
                return self._lit(scope.loops[name])
            if name in scope.aliases:
                raise NativeUnsupported(
                    f"array value {name!r} used in scalar position"
                )
            if name in scope.rename:
                return scope.rename[name]
            if name in scope.params:
                raise NativeUnsupported(
                    f"whole parameter {name!r} used as a value"
                )
            v = scope.ns.get(name)
            if isinstance(v, (bool, int, float, np.floating, np.integer)):
                return self._lit_np(v)
            raise NativeUnsupported(f"unresolvable name {name!r}")
        if isinstance(node, ast.Subscript):
            r = self._resolve_access(node, scope)
            if r[0] == "lval":
                self._value_reads.add(r[1])
                return self._lvalue(r[1], r[2], r[3])
            if r[0] == "elem":
                return self._lit_np(r[1])
            raise NativeUnsupported("array-valued subscript in scalar position")
        if isinstance(node, ast.BinOp):
            folded = self._try_const(node, scope)
            if folded is not None:
                return self._lit(folded)
            if isinstance(node.op, ast.Pow):
                return self._pow(node.left, node.right, scope)
            op = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*",
                  ast.Div: "/"}.get(type(node.op))
            if op is None:
                raise NativeUnsupported(
                    f"operator {type(node.op).__name__} in value position"
                )
            return f"({self._cx(node.left, scope)} {op} " \
                   f"{self._cx(node.right, scope)})"
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.USub):
                return f"(-{self._cx(node.operand, scope)})"
            return self._cx(node.operand, scope)
        if isinstance(node, ast.Compare):
            return (f"({self._cond(node, scope)} ? "
                    f"{self._lit(1.0)} : {self._lit(0.0)})")
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

    def _try_const(self, node, scope: _Scope):
        """Evaluate a pure-Python constant subtree the way the scalar
        kernel itself would — in Python (double) arithmetic — so that
        e.g. ``0.5 * g`` folds to one literal *before* it is narrowed
        to the loop's float type, exactly matching NumPy's weak-scalar
        promotion.  Returns ``None`` when any leaf is runtime data or a
        (strong) NumPy scalar."""
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float)) and \
                    not isinstance(node.value, bool):
                return node.value
            return None
        if isinstance(node, ast.Name):
            if node.id in scope.loops:
                return scope.loops[node.id]
            if node.id in scope.rename or node.id in scope.aliases \
                    or node.id in scope.params:
                return None
            v = scope.ns.get(node.id)
            if type(v) in (int, float):
                return v
            return None
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            v = self._try_const(node.operand, scope)
            return None if v is None else -v
        if isinstance(node, ast.BinOp):
            lv = self._try_const(node.left, scope)
            rv = self._try_const(node.right, scope)
            if lv is None or rv is None:
                return None
            try:
                if isinstance(node.op, ast.Add):
                    return lv + rv
                if isinstance(node.op, ast.Sub):
                    return lv - rv
                if isinstance(node.op, ast.Mult):
                    return lv * rv
                if isinstance(node.op, ast.Div):
                    return lv / rv
                if isinstance(node.op, ast.Pow):
                    return lv ** rv
            except (ZeroDivisionError, OverflowError):
                return None
        return None

    def _cond(self, node, scope: _Scope) -> str:
        if isinstance(node, ast.Compare):
            cop = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
                   ast.Eq: "==", ast.NotEq: "!="}.get(type(node.ops[0]))
            if cop is None or len(node.ops) != 1:
                raise NativeUnsupported("unsupported comparison")
            return (
                f"({self._cx(node.left, scope)} {cop} "
                f"{self._cx(node.comparators[0], scope)})"
            )
        return f"({self._cx(node, scope)} != 0.0)"

    def _pow(self, base, expo, scope: _Scope) -> str:
        b = self._cx(base, scope)
        v: Optional[float] = None
        if isinstance(expo, ast.Constant) and isinstance(
                expo.value, (int, float)) and not isinstance(expo.value, bool):
            v = float(expo.value)
        elif isinstance(expo, ast.Name):
            nv = scope.ns.get(expo.id)
            if isinstance(nv, (int, float, np.floating, np.integer)):
                v = float(nv)
        elif isinstance(expo, ast.UnaryOp) and isinstance(expo.op, ast.USub) \
                and isinstance(expo.operand, ast.Constant):
            v = -float(expo.operand.value)
        # numpy *scalar* ``**`` (the interpreter oracle) is plain libm
        # pow()/powf() — unlike array ``**``, whose small-exponent fast
        # paths (np.square, sqrt, reciprocal) round differently by one
        # ulp on some inputs.  Only the exponents where pow() is exact
        # by IEEE (x**0 == 1, x**1 == x) may fold.
        if v is not None:
            if v == 0.0:
                return self._lit(1.0)
            if v == 1.0:
                return b
            return f"pow{self.sfx}({b}, {self._lit(v)})"
        return f"kc_pow{self.sfx}({b}, {self._cx(expo, scope)})"

    def _callee(self, func, scope: _Scope):
        if isinstance(func, ast.Name):
            if func.id in scope.ns:
                return scope.ns[func.id]
            return getattr(builtins, func.id, None)
        if isinstance(func, ast.Attribute):
            base = self._callee(func.value, scope)
            if base is None:
                return None
            return getattr(base, func.attr, None)
        return None

    def _call(self, node: ast.Call, scope: _Scope) -> str:
        fn = self._callee(node.func, scope)
        if fn is None or node.keywords:
            raise NativeUnsupported("unresolvable or keyword call")
        a = [self._cx(arg, scope) for arg in node.args[1:]]

        def arg0() -> str:
            return self._cx(node.args[0], scope)

        if fn in (np.sqrt, _intrinsics.vsqrt):
            return f"sqrt{self.sfx}({arg0()})"
        if fn in (np.abs, np.absolute, builtins.abs, _intrinsics.vabs):
            return f"fabs{self.sfx}({arg0()})"
        if fn in (np.minimum, _intrinsics.vmin):
            return f"kc_fmin{self.sfx}({arg0()}, {a[0]})"
        if fn in (np.maximum, _intrinsics.vmax):
            return f"kc_fmax{self.sfx}({arg0()}, {a[0]})"
        if fn is builtins.min and len(node.args) == 2:
            return f"kc_pymin{self.sfx}({arg0()}, {a[0]})"
        if fn is builtins.max and len(node.args) == 2:
            return f"kc_pymax{self.sfx}({arg0()}, {a[0]})"
        if fn is _intrinsics.select:
            return (
                f"({self._cond(node.args[0], scope)} ? {a[0]} : {a[1]})"
            )
        if fn is _intrinsics.vfma:
            return f"(({arg0()} * {a[0]}) + {a[1]})"
        if fn is _intrinsics.vrecip:
            return f"({self._lit(1.0)} / {arg0()})"
        raise NativeUnsupported(
            f"call to {getattr(fn, '__name__', fn)!r} in expression position"
        )

    # -- helper inlining ------------------------------------------------
    def _inline_helper(self, call: ast.Call, targets: List[str],
                       scope: _Scope, out: List[str], ind: str) -> None:
        fn = self._callee(call.func, scope)
        n = self._hc
        self._hc += 1
        pf = f"h{n}_"
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn))).body[0]
        params = [p.arg for p in tree.args.args]
        if len(params) != len(call.args):
            raise NativeUnsupported(
                f"helper {fn.__name__}: argument count mismatch"
            )
        hscope = _Scope(ns=function_namespace(fn))
        out.append(f"{ind}/* inlined {fn.__name__}() */")
        for p, anode in zip(params, call.args):
            cn = pf + p
            out.append(f"{ind}const {self.ft} {cn} = {self._cx(anode, scope)};")
            hscope.rename[p] = cn
        rets: Optional[List[ast.expr]] = None
        for st in tree.body:
            if isinstance(st, ast.Expr) and isinstance(st.value, ast.Constant):
                continue  # docstring
            if isinstance(st, ast.Return):
                if st.value is None:
                    raise NativeUnsupported(
                        f"helper {fn.__name__}: bare return"
                    )
                rets = (list(st.value.elts)
                        if isinstance(st.value, ast.Tuple) else [st.value])
                break
            if not isinstance(st, ast.Assign):
                raise NativeUnsupported(
                    f"helper {fn.__name__}: non-assign statement"
                )
            self._helper_assign(st, pf, hscope, scope, out, ind)
        if rets is None:
            raise NativeUnsupported(f"helper {fn.__name__}: missing return")
        if len(rets) != len(targets):
            raise NativeUnsupported(
                f"helper {fn.__name__}: returns {len(rets)} values into "
                f"{len(targets)} targets"
            )
        tmps = []
        for i, rv in enumerate(rets):
            tn = f"{pf}r{i}"
            out.append(f"{ind}const {self.ft} {tn} = {self._cx(rv, hscope)};")
            tmps.append(tn)
        for tgt, tn in zip(targets, tmps):
            out.append(f"{ind}{tgt} = {tn};" if isinstance(tgt, str)
                       else f"{ind}{self._store(tgt, scope, '=', tn)}")

    def _helper_assign(self, st: ast.Assign, pf: str, hscope: _Scope,
                       kscope: _Scope, out: List[str], ind: str) -> None:
        tgt = st.targets[0]
        if len(st.targets) != 1:
            raise NativeUnsupported("helper: chained assignment")
        names = ([t.id for t in tgt.elts] if isinstance(tgt, ast.Tuple)
                 else [tgt.id] if isinstance(tgt, ast.Name) else None)
        if names is None:
            raise NativeUnsupported("helper: non-name assignment target")

        def bind(name: str) -> str:
            if name in hscope.rename:
                return hscope.rename[name]
            cn = pf + name
            hscope.rename[name] = cn
            out.append(f"{ind}{self.ft} {cn};")
            return cn

        if isinstance(st.value, ast.Call) and self._is_helper_in(
                st.value, hscope):
            self._inline_helper(st.value, [bind(n) for n in names],
                                hscope, out, ind)
            return
        if isinstance(tgt, ast.Tuple):
            if not isinstance(st.value, ast.Tuple) or \
                    len(st.value.elts) != len(names):
                raise NativeUnsupported("helper: unsupported tuple assign")
            tmps = []
            for i, v in enumerate(st.value.elts):
                tn = f"{pf}t{i}_{self._tc}"
                self._tc += 1
                out.append(f"{ind}const {self.ft} {tn} = {self._cx(v, hscope)};")
                tmps.append(tn)
            for name, tn in zip(names, tmps):
                out.append(f"{ind}{bind(name)} = {tn};")
            return
        out.append(f"{ind}{bind(names[0])} = {self._cx(st.value, hscope)};")

    def _is_helper_in(self, node, scope: _Scope) -> bool:
        if not isinstance(node, ast.Call):
            return False
        fn = self._callee(node.func, scope)
        if fn is None or fn in INTRINSICS_AND_MATH or not inspect.isfunction(fn):
            return False
        return is_lane_safe_helper(fn)

    # -- statements -----------------------------------------------------
    def _target_code(self, tgt, scope: _Scope) -> str:
        if isinstance(tgt, ast.Name):
            scope.aliases.pop(tgt.id, None)
            cn = scope.rename.get(tgt.id)
            if cn is None:
                raise NativeUnsupported(f"undeclared target {tgt.id!r}")
            return cn
        raise NativeUnsupported(
            f"assignment target {type(tgt).__name__} unsupported"
        )

    def _store(self, tgt, scope: _Scope, op: str, rhs) -> str:
        """One store, ``target op rhs;``.  ``rhs`` is the value's C, or
        a callable giving it once the target has resolved.  An owner
        loop guards a store through a map; a packet loop captures it in
        a packet column instead, for the ordered scatter."""
        if not isinstance(tgt, ast.Subscript):
            target = self._target_code(tgt, scope)
            return f"{target} {op} {rhs() if callable(rhs) else rhs};"
        r = self._resolve_access(tgt, scope)
        if r[0] != "lval":
            raise NativeUnsupported("partial-array store target")
        k = r[1]
        value = rhs() if callable(rhs) else rhs
        if self.lanes.kind == "packet" and self.specs[k].kind == "indirect":
            if self._branch:
                raise _Unpacketable("store through a map under a branch")
            self._sites.append((k, r[3], op))
            return f"kc_s{len(self._sites) - 1}[kc_l] = {value};"
        owned = self._owned(k, f"i{k}")
        guard = f"if ({owned}) " if owned else ""
        return f"{guard}{self._lvalue(k, r[2], r[3])} {op} {value};"

    def _stmt(self, st, scope: _Scope, out: List[str], ind: str) -> None:
        column = self._columns.get(id(st))
        if column is not None:
            argpos, comp, value = column
            out.append(f"{ind}{self._col_ref(argpos, comp)} = "
                       f"{self._cx(value, scope)};")
            return
        if isinstance(st, SAssign):
            self._assign(st, scope, out, ind)
        elif isinstance(st, SAug):
            op = {ast.Add: "+=", ast.Sub: "-=", ast.Mult: "*=",
                  ast.Div: "/="}.get(type(st.op))
            if op is None:
                raise NativeUnsupported("unsupported augmented assignment")
            rhs = self._cx(st.value, scope)
            out.append(f"{ind}{self._store(st.target, scope, op, rhs)}")
        elif isinstance(st, SFor):
            if st.var in scope.loops:
                raise NativeUnsupported(f"loop variable {st.var!r} reused")
            span = range(st.start, st.stop, st.step)
            if len(span) > 4096:
                raise NativeUnsupported("dim loop too large to unroll")
            out.append(f"{ind}/* for {st.var} in "
                       f"range({st.start}, {st.stop}, {st.step}) */")
            for v in span:
                scope.loops[st.var] = v
                for inner in st.body:
                    self._stmt(inner, scope, out, ind)
            scope.loops.pop(st.var, None)
        elif isinstance(st, SIf):
            before = dict(scope.aliases)
            out.append(f"{ind}if {self._cond(st.test, scope)} {{")
            self._branch += 1
            for inner in st.body:
                self._stmt(inner, scope, out, ind + "    ")
            if scope.aliases != before:
                raise NativeUnsupported("alias binding inside a branch")
            if st.orelse:
                out.append(f"{ind}}} else {{")
                for inner in st.orelse:
                    self._stmt(inner, scope, out, ind + "    ")
                if scope.aliases != before:
                    raise NativeUnsupported("alias binding inside a branch")
            self._branch -= 1
            out.append(f"{ind}}}")
        else:
            raise NativeUnsupported(
                f"statement {type(st).__name__} has no native lowering"
            )

    def _assign(self, st: SAssign, scope: _Scope, out: List[str],
                ind: str) -> None:
        if len(st.targets) != 1:
            tn = f"t{self._tc}"
            self._tc += 1
            out.append(f"{ind}const {self.ft} {tn} = {self._cx(st.value, scope)};")
            for tgt in st.targets:
                out.append(f"{ind}{self._store(tgt, scope, '=', tn)}")
            return
        tgt = st.targets[0]
        # Array aliasing: ``x1 = x[k]`` binds a row, emits nothing.
        if isinstance(tgt, ast.Name) and isinstance(st.value, ast.Subscript):
            r = self._resolve_access(st.value, scope)
            if r[0] == "alias":
                scope.aliases[tgt.id] = ("arg", r[1], r[2])
                return
            if r[0] == "nsarr":
                scope.aliases[tgt.id] = ("ns", r[1])
                return
        # Helper call: inline at statement level.
        if isinstance(st.value, ast.Call) and self._is_helper_in(
                st.value, scope):
            # Locals resolve now (binding order); stores at the end.
            targets = [
                t if isinstance(t, ast.Subscript)
                else self._target_code(t, scope)
                for t in (tgt.elts if isinstance(tgt, ast.Tuple) else [tgt])
            ]
            self._inline_helper(st.value, targets, scope, out, ind)
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
                    if r[0] in ("alias", "nsarr"):
                        tmps.append(("alias", r))
                        continue
                tn = f"t{self._tc}"
                self._tc += 1
                out.append(f"{ind}const {self.ft} {tn} = {self._cx(v, scope)};")
                tmps.append(("tmp", tn))
            for t, (kind, val) in zip(tgt.elts, tmps):
                if kind == "alias":
                    if not isinstance(t, ast.Name):
                        raise NativeUnsupported("array alias into subscript")
                    if val[0] == "alias":
                        scope.aliases[t.id] = ("arg", val[1], val[2])
                    else:
                        scope.aliases[t.id] = ("ns", val[1])
                else:
                    out.append(f"{ind}{self._store(t, scope, '=', val)}")
            return
        out.append(ind + self._store(
            tgt, scope, "=", lambda: self._cx(st.value, scope)))

    # -- locals pre-pass -------------------------------------------------
    def _collect_locals(self) -> List[str]:
        """Ordered scalar local names (aliases and loop vars excluded)."""
        names: List[str] = []
        depth: Dict[str, int] = {}  # alias name -> remaining subscripts

        def need(name: str) -> Optional[int]:
            """How many subscripts until ``name`` yields a scalar."""
            if name in depth:
                return depth[name]
            if name in self._kscope.params:
                spec = self.specs[self._kscope.params[name]]
                return 2 if spec.kind == "vector" else 1
            v = self.ir.namespace.get(name)
            if isinstance(v, np.ndarray):
                return v.ndim
            return None

        def sub_depth(node) -> Tuple[Optional[str], int]:
            levels = 0
            while isinstance(node, ast.Subscript):
                levels += 1
                node = node.value
            if isinstance(node, ast.Name):
                return node.id, levels
            return None, levels

        def add(name: str) -> None:
            depth.pop(name, None)
            if name not in names:
                names.append(name)

        def scan_assign(tgt, value) -> None:
            if isinstance(tgt, ast.Tuple):
                elts_v = (value.elts if isinstance(value, ast.Tuple)
                          else [None] * len(tgt.elts))
                for t, v in zip(tgt.elts, elts_v):
                    scan_assign(t, v)
                return
            if not isinstance(tgt, ast.Name):
                return
            if isinstance(value, ast.Subscript):
                base, levels = sub_depth(value)
                needed = need(base) if base else None
                if needed is not None and levels < needed:
                    depth[tgt.id] = needed - levels
                    return
            add(tgt.id)

        def walk(stmts) -> None:
            for st in stmts:
                if isinstance(st, SAssign):
                    for tgt in st.targets:
                        scan_assign(tgt, st.value)
                elif isinstance(st, SFor):
                    walk(st.body)
                elif isinstance(st, SIf):
                    walk(st.body)
                    walk(st.orelse)
        walk(self.ir.body)
        return names

    # -- whole-loop emission ---------------------------------------------
    def emit(self) -> List[str]:
        bl = self.bl
        owner = self.verdict.kind == "owner"
        lanes = self.lanes.kind
        self._taken: set = set()
        self._hc = 0
        self._tc = 0
        self._value_reads = set()
        self._sites = []
        self._branch = 0
        self._kscope = _Scope(
            ns=self.ir.namespace,
            params={p: i for i, p in enumerate(self.ir.params)},
        )
        scope = self._kscope
        out: List[str] = []
        lowered = "" if lanes == "scalar" else f", {self.lanes}"
        out.append(
            f"/* ---- loop {self.j}: {bl.kernel.name} over "
            f"[0, {bl.n}){lowered} ---- */"
        )
        for argpos, slot in self.red_args:
            spec = self.specs[argpos]
            out.append(f"static {self.ft} {self._red(spec)}[{spec.dim}];")
        chunk = ", i64 kc_c, i64 kc_k" if owner else ""
        out.append(
            f"static void kc_loop{self.j}(void **P, i64 lo, i64 hi{chunk})"
        )
        out.append("{")

        # One typed pointer local per distinct pointer-table slot.
        writes: Dict[int, bool] = {}
        slot_meta: Dict[int, Tuple[str, str, str]] = {}
        for spec in self.specs:
            if spec.kind in ("direct", "indirect", "vector"):
                writes[spec.slot] = writes.get(spec.slot, False) or \
                    spec.access.writes
                slot_meta[spec.slot] = ("d", spec.ctype, spec.name)
                if spec.map_slot is not None:
                    slot_meta[spec.map_slot] = ("m", "int", spec.name)
            elif spec.kind in ("gread", "gwrite"):
                writes[spec.slot] = writes.get(spec.slot, False) or \
                    spec.kind == "gwrite"
                slot_meta[spec.slot] = ("g", spec.ctype, spec.name)
        for slot in sorted(slot_meta):
            pfx, ctype, name = slot_meta[slot]
            if pfx == "m":
                # Map tables are 4-byte (core.map.MAP_DTYPE); the row
                # index widens to i64 where it is read.
                out.append(
                    f"    const int *m{slot} = (const int *)P[{slot}];"
                )
            else:
                const = "" if writes.get(slot) else "const "
                out.append(
                    f"    {const}{ctype} *{pfx}{slot} = "
                    f"({const}{ctype} *)P[{slot}];"
                )
        for argpos, slot in self.col_slots.items():
            out.append(
                f"    {self.ft} *kc_col{slot} = ({self.ft} *)P[{slot}];"
            )
        if owner:
            out.append("    /* chunk kc_c of kc_k stores only into the "
                       "targets it owns */")
        for g, extent in enumerate(self._extents if owner else ()):
            out.append(
                f"    const i64 kc_lo{g} = kc_c * {extent} / kc_k, "
                f"kc_hi{g} = (kc_c + 1) * {extent} / kc_k;"
            )
        body: List[str] = []
        ind = "            " if lanes == "packet" else "        "

        # Indirect row indices.
        for k, spec in enumerate(self.specs):
            if spec.kind == "indirect":
                body.append(
                    f"{ind}const i64 i{k} = "
                    f"m{spec.map_slot}[e * {spec.arity} + {spec.map_index}];"
                )
        # Vector-argument gathers (copies, exactly like scalar_views);
        # unrolled across lanes, so each slot is a scalar of the lane.
        for k, spec in enumerate(self.specs):
            if spec.kind != "vector":
                continue
            size = spec.arity * spec.dim
            if spec.access is Access.INC:
                body.append(f"{ind}{self.ft} v{k}[{size}] = {{0.0{self.sfx}}};")
                continue
            body.append(f"{ind}{self.ft} v{k}[{size}];")
            if lanes != "scalar":
                for l in range(spec.arity):
                    body.append(f"{ind}const i64 kc_r{k}_{l} = "
                                f"m{spec.map_slot}[e * {spec.arity} + {l}];")
                    for c in range(spec.dim):
                        body.append(
                            f"{ind}v{k}[{l * spec.dim + c}] = "
                            f"{self._addr(spec, f'kc_r{k}_{l}', c)};"
                        )
                continue
            body.append(f"{ind}for (int l = 0; l < {spec.arity}; ++l) {{")
            body.append(
                f"{ind}    const i64 r = m{spec.map_slot}"
                f"[e * {spec.arity} + l];"
            )
            for c in range(spec.dim):
                body.append(
                    f"{ind}    v{k}[l * {spec.dim} + {c}] = "
                    f"{self._addr(spec, 'r', c)};"
                )
            body.append(f"{ind}}}")

        # Scalar locals (pre-declared: branch assignments stay visible).
        for name in self._collect_locals():
            scope.rename[name] = _cident(name, self._taken)
        if scope.rename:
            decls = " ".join(
                f"{self.ft} {scope.rename[n]};" for n in scope.rename
            )
            body.append(f"{ind}{decls}")

        for st in self.ir.body:
            self._stmt(st, scope, body, ind)

        # Writebacks in argument order (run_scalar_element's order).
        for k, spec in enumerate(self.specs):
            if spec.kind != "vector" or not spec.access.writes:
                continue
            if lanes == "packet":  # an INC: its accumulator, to columns
                body.extend(f"{ind}kc_v{k}[{i}][kc_l] = v{k}[{i}];"
                            for i in range(spec.arity * spec.dim))
                continue
            op = "+=" if spec.access is Access.INC else "="
            body.append(f"{ind}for (int l = 0; l < {spec.arity}; ++l) {{")
            body.append(
                f"{ind}    const i64 r = m{spec.map_slot}"
                f"[e * {spec.arity} + l];"
            )
            owned = self._owned(k, "r")
            if owned:
                body.append(f"{ind}    if (!({owned})) continue;")
            for c in range(spec.dim):
                body.append(
                    f"{ind}    {self._addr(spec, 'r', c)} {op} "
                    f"v{k}[l * {spec.dim} + {c}];"
                )
            body.append(f"{ind}}}")
        if lanes == "packet":
            out.extend(self._packet_loop(body))
        else:
            if lanes == "simd":
                out.append("#pragma omp simd")
            out.append("    for (i64 e = lo; e < hi; ++e) {")
            out.extend(body)
            out.append("    }")
        out.append("}")

        # Reduction plumbing.
        if self.red_args:
            init_lines, fold_lines, part_lines = [], [], []
            for argpos, slot in self.red_args:
                spec = self.specs[argpos]
                red = self._red(spec)
                acc = self.bl.args[argpos].access
                maxlit = "FLT_MAX" if self.ft == "float" else "DBL_MAX"
                ident = {"INC": self._lit(0.0), "MIN": maxlit,
                         "MAX": f"(-{maxlit})"}[acc.name]
                fmin, fmax = f"kc_fmin{self.sfx}", f"kc_fmax{self.sfx}"
                comb = {
                    "INC": "g[{c}] += {r}[{c}];",
                    "MIN": "g[{c}] = %s(g[{c}], {r}[{c}]);" % fmin,
                    "MAX": "g[{c}] = %s(g[{c}], {r}[{c}]);" % fmax,
                }[acc.name]
                for c in range(spec.dim):
                    init_lines.append(f"    {red}[{c}] = {ident};")
                    fold_lines.append(
                        "    { %s *g = (%s *)P[%d]; %s }"
                        % (self.ft, self.ft, slot, comb.format(c=c, r=red))
                    )
                    part_lines.append(
                        f"    (({self.ft} *)P[{slot}])[{c}] = {red}[{c}];"
                    )
            out.append(f"static void kc_loop{self.j}_init(void)")
            out.append("{")
            out.extend(init_lines)
            out.append("}")
            out.append(f"static void kc_loop{self.j}_fold(void **P)")
            out.append("{")
            out.extend(fold_lines)
            out.append("}")
            out.append(f"static void kc_loop{self.j}_partial(void **P)")
            out.append("{")
            out.extend(part_lines)
            out.append("}")
        if self._columns:
            out.extend(self._emit_column_fold())
        out.append("")
        return out

    def _packet_loop(self, body: List[str]) -> List[str]:
        """The element loop of a packet loop around ``body`` (the lane
        code, whose stores through maps went to packet columns)."""
        cols = [f"kc_s{n}[{PACKET}]" for n in range(len(self._sites))]
        cols += [f"kc_v{k}[{s.arity * s.dim}][{PACKET}]"
                 for k, s in enumerate(self.specs)
                 if s.kind == "vector" and s.access.writes]
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
            *self._scatter_lines("            "),
            "        }",
            "    }",
        ]

    def _scatter_lines(self, ind: str) -> List[str]:
        """The packet's stores for element ``e`` of lane ``kc_l``: the
        body's stores through maps, then the vector writebacks."""
        out: List[str] = []
        rows: set = set()
        for n, (k, comp, op) in enumerate(self._sites):
            spec = self.specs[k]
            if k not in rows:
                rows.add(k)
                out.append(f"{ind}const i64 i{k} = m{spec.map_slot}"
                           f"[e * {spec.arity} + {spec.map_index}];")
            owned = self._owned(k, f"i{k}")
            guard = f"if ({owned}) " if owned else ""
            out.append(f"{ind}{guard}{self._addr(spec, f'i{k}', comp)} "
                       f"{op} kc_s{n}[kc_l];")
        for k, spec in enumerate(self.specs):
            if spec.kind != "vector" or not spec.access.writes:
                continue
            out.append(f"{ind}for (int l = 0; l < {spec.arity}; ++l) {{")
            out.append(f"{ind}    const i64 r = m{spec.map_slot}"
                       f"[e * {spec.arity} + l];")
            owned = self._owned(k, "r")
            if owned:
                out.append(f"{ind}    if (!({owned})) continue;")
            for c in range(spec.dim):
                out.append(f"{ind}    {self._addr(spec, 'r', c)} += "
                           f"kc_v{k}[l * {spec.dim} + {c}][kc_l];")
            out.append(f"{ind}}}")
        return out

    def _emit_column_fold(self) -> List[str]:
        """``kc_loopJ_cfold``: the reduction statements replayed over
        the per-element columns in element order — the serial loop's
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
        scope = _Scope(ns=self.ir.namespace, params=self._kscope.params)
        column = ast.Name("kc_x", ast.Load())
        for st in self.ir.body:
            found = self._columns.get(id(st))
            if found is None:
                continue
            argpos, comp, value = found
            scope.rename["kc_x"] = self._col_ref(argpos, comp)
            if isinstance(st, SAug):
                st = SAug(st.target, st.op, column)
            else:
                call = st.value
                args = [column if a is value else a for a in call.args]
                st = SAssign(st.targets, ast.Call(call.func, args, []))
            self._stmt(st, scope, out, "        ")
        out.append("    }")
        out.append("}")
        return out

    # -- threaded-TU driver lines ----------------------------------------
    def run_case(self) -> str:
        """``kc_loop_run``'s case: the loop on one thread, any range."""
        j = self.j
        if self.verdict.kind == "owner":
            return f"    case {j}: kc_loop{j}(P, lo, hi, 0, 1); break;"
        if self._columns:
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


#: Call targets that are *not* inlinable helpers (resolved specially).
INTRINSICS_AND_MATH = frozenset(
    {np.sqrt, np.abs, np.absolute, np.minimum, np.maximum,
     builtins.abs, builtins.min, builtins.max,
     _intrinsics.select, _intrinsics.vmin, _intrinsics.vmax,
     _intrinsics.vabs, _intrinsics.vsqrt, _intrinsics.vfma,
     _intrinsics.vrecip}
)


_PREAMBLE = """\
#include <math.h>
#include <float.h>

typedef long long i64;

/* np.minimum / np.maximum semantics (NaN-propagating, first-wins). */
static inline double kc_fmin(double a, double b)
{ return (a < b || isnan(a)) ? a : b; }
static inline double kc_fmax(double a, double b)
{ return (a > b || isnan(a)) ? a : b; }
/* Python builtin min/max semantics (second-wins ties, NaN quirks). */
static inline double kc_pymin(double a, double b)
{ return (b < a) ? b : a; }
static inline double kc_pymax(double a, double b)
{ return (b > a) ? b : a; }
/* numpy scalar ``**`` is plain libm pow() — no array-style fast paths. */
static double kc_pow(double x, double y)
{
    return pow(x, y);
}
/* Single-precision twins for float32 (Volna) loops. */
static inline float kc_fminf(float a, float b)
{ return (a < b || isnan(a)) ? a : b; }
static inline float kc_fmaxf(float a, float b)
{ return (a > b || isnan(a)) ? a : b; }
static inline float kc_pyminf(float a, float b)
{ return (b < a) ? b : a; }
static inline float kc_pymaxf(float a, float b)
{ return (b > a) ? b : a; }
static float kc_powf(float x, float y)
{
    return powf(x, y);
}
"""


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
    """Pointer table and classified per-loop emitters of one chain.

    With ``threads`` every loop is classified (:class:`LoopVerdict`);
    the TU is threaded when any loop is not ``serial``.  Without, or
    when no loop qualifies, no slot is added and the TU is the plain
    serial one, byte for byte."""
    ptab = _PointerTable()
    emitters = [_LoopEmitter(j, bl, ptab) for j, bl in enumerate(loops)]
    if threads:
        for em in emitters:
            em.classify(ptab)
    for em in emitters:
        em.classify_lanes()
    threaded = any(em.verdict.kind != "serial" for em in emitters)
    return ptab, emitters, threaded


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
    ptab, emitters, threaded = (
        _plan_chain(loops, threads) if plan is None else plan
    )
    parts: List[str] = [
        f"/* Generated by repro.kernelc.native — {name}: "
        f"{len(emitters)} loop(s). */",
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
    bodies: List[str] = []
    for em in emitters:
        bodies.extend(em.emit())
    parts.extend(bodies)

    runs, inits, partials, fused = [], [], [], []
    for em in emitters:
        j = em.j
        runs.append(em.run_case())
        if em.red_args:
            inits.append(f"    case {j}: kc_loop{j}_init(); break;")
            partials.append(f"    case {j}: kc_loop{j}_partial(P); break;")
            fused.append(f"    kc_loop{j}_init();")
        fused.append(f"    kc_loop{j}(P, 0, {em.bl.n});")
        if em.red_args:
            fused.append(f"    kc_loop{j}_fold(P);")
    parts.append("void kc_loop_run(i64 j, void **P, i64 lo, i64 hi)")
    parts.append("{")
    parts.append("    switch (j) {")
    parts.extend(runs)
    parts.append("    default: break;")
    parts.append("    }")
    parts.append("}")
    for fname, cases, sig in (
        ("kc_loop_init", inits, "i64 j"),
        ("kc_loop_partial", partials, "i64 j, void **P"),
    ):
        parts.append(f"void {fname}({sig})")
        parts.append("{")
        if cases:
            parts.append("    switch (j) {")
            parts.extend(cases)
            parts.append("    default: break;")
            parts.append("    }")
        else:
            parts.append("    (void)j;")
            if "P" in sig:
                parts.append("    (void)P;")
        parts.append("}")
    if threaded:
        parts.append("/* Whole-chain replay by one team: loops in program "
                     "order, each")
        parts.append(" * ending in the team barrier; reductions folded in "
                     "element order. */")
        parts.append("static void kc_team_run(void **P)")
        parts.append("{")
        for em in emitters:
            parts.extend(em.team_lines())
        parts.append("}")
        parts.append("void kc_run_fused(void **P)")
        parts.append("{")
        parts.append("#pragma omp parallel")
        parts.append("    {")
        parts.extend(_TEAM_SIZE)
        parts.append("        kc_team_run(P);")
        parts.append("    }")
        parts.append("}")
    else:
        parts.append("/* Whole-chain replay: loops in program order, each")
        parts.append(" * reduction folded before the next loop can read "
                     "it. */")
        parts.append("void kc_run_fused(void **P)")
        parts.append("{")
        parts.extend(fused)
        parts.append("}")
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


def source_key(source: str) -> str:
    """Content hash of an emitted TU — the native cache key.  Everything
    behavior-affecting (kernel bodies, strides, layouts, extents, loop
    ranges, constants) is baked into the source text, so equal keys mean
    interchangeable shared objects."""
    return hashlib.sha256(source.encode()).hexdigest()


# ----------------------------------------------------------------------
# Compilation + two-level (memory / disk) cache
# ----------------------------------------------------------------------
_CDEF = """
void kc_loop_run(long long j, void **P, long long lo, long long hi);
void kc_loop_init(long long j);
void kc_loop_partial(long long j, void **P);
void kc_run_fused(void **P);
long long kc_run_repeat(void **P, long long max_trips, void *hist);
int kc_threads(void);
"""

#: cc flags: IEEE-strict (no contraction, no reassociation) — the
#: determinism contract depends on these.
#: ``-fno-builtin-pow``: GCC otherwise expands ``pow(x, 2.0)`` into
#: ``x * x`` at compile time, which rounds one ulp away from libm pow —
#: the numpy-scalar semantics the oracle interpreter exhibits.
CFLAGS = ["-O2", "-fPIC", "-shared", "-fno-fast-math", "-ffp-contract=off",
          "-fno-builtin-pow", "-fno-builtin-powf"]
#: Added for a TU with a loop lowered across elements:
#: ``-fopenmp-simd`` honours ``omp simd`` (and no other OpenMP);
#: ``-fno-math-errno`` lets ``sqrt`` be one instruction instead of a
#: call that may set ``errno``, so it can vectorize; 256-bit vectors,
#: no straight-line SLP and no vectorized epilogue cut the AVX-512
#: build's extra time from ~0.25 to ~0.08 s on airfoil_large's TU, and
#: keep scrambled Volna's gain.  None changes a result.  Plus the
#: host's vector ISA (:func:`repro.simd.isa_flags`).  A compiler that
#: rejects them builds the same source without, scalar, counted under
#: ``scalar_builds``.
LANE_FLAGS = ["-fopenmp-simd", "-fno-math-errno", "-mprefer-vector-width=256",
              "-fno-tree-slp-vectorize", "--param", "vect-epilogues-nomask=0"]
#: Added for a threaded TU.  A compiler that rejects it builds the same
#: source without (pragmas ignored: one thread, the same bits), and the
#: build is counted under ``serial_builds``.
OPENMP_FLAGS = ["-fopenmp"]

_stats = {
    "compiles": 0,
    "disk_hits": 0,
    "mem_hits": 0,
    "failures": 0,
    "fallbacks": 0,
}
_mem_libs: Dict[str, tuple] = {}
_cc_probe: Dict[tuple, Optional[str]] = {}
#: ``(compiler, flag group)`` pairs seen rejected in this process.
_rejected: set = set()
#: Team size last observed by a threaded call; threaded TUs built
#: without OpenMP, and TUs built without the lane flags, by reason.
_threads: Dict[str, object] = {"threads": None, "serial_builds": {},
                               "scalar_builds": {}}


def native_cache_stats() -> Dict[str, int]:
    """Counters for the native compile cache (6th runtime cache kind)."""
    out = dict(_stats)
    out["entries"] = len(_mem_libs)
    return out


def native_thread_stats() -> Dict[str, object]:
    """``threads``: the OpenMP team size a threaded chain last ran with
    (``None`` before any did); ``serial_builds``: threaded TUs compiled
    without OpenMP, by reason; ``scalar_builds``: TUs compiled without
    the lane flags, by reason; ``isa``: the vector ISA TUs target."""
    return {"threads": _threads["threads"],
            "serial_builds": dict(_threads["serial_builds"]),
            "scalar_builds": dict(_threads["scalar_builds"]),
            "isa": host_isa()}


def _count_build(counter: str, reason: str) -> None:
    builds = _threads[counter]
    builds[reason] = builds.get(reason, 0) + 1


def count_native_fallback() -> None:
    """Record one chain/loop that fell back off the native path."""
    _stats["fallbacks"] += 1


def reset_native_cache() -> None:
    """Drop in-memory compiled libraries and zero the counters (tests).
    The on-disk cache is left alone — remove ``native_cache_dir()`` to
    clear it."""
    from .. import store

    _mem_libs.clear()
    _cc_probe.clear()
    _rejected.clear()
    for k in _stats:
        _stats[k] = 0
    _threads["threads"] = None
    _threads["serial_builds"] = {}
    _threads["scalar_builds"] = {}
    c = store.counters("native")
    for k in c:
        c[k] = 0


def native_cache_dir() -> Path:
    """Directory holding compiled ``.so``/``.c`` pairs.

    Binaries live in the unified artifact store
    (``$REPRO_CACHE_DIR/native/``) under a machine-fingerprint
    subdirectory — compiled code is not portable across machines the
    way pickled plan documents are.
    """
    from .. import store
    from ..tune.signature import machine_fingerprint

    return store.cache_root() / "native" / machine_fingerprint()


def library_key(source: str, flags: Optional[Sequence[str]] = None) -> str:
    """Disk key of one compiled TU: source content **plus the flags it
    is compiled with** (default :data:`CFLAGS`).

    Unlike :func:`source_key` (the pure source digest, the in-memory
    key), the disk key folds in the compile flags: they are
    behavior-affecting (``-fno-builtin-pow`` changes rounding, a
    threaded TU built without ``-fopenmp`` runs on one thread), so a
    flags change must invalidate every cached binary.
    """
    flags = CFLAGS if flags is None else flags
    return hashlib.sha256(
        "\x1f".join([source, *flags]).encode()
    ).hexdigest()


def _is_threaded(source: str) -> bool:
    return "#pragma omp parallel" in source


def _flag_groups(source: str) -> List[Tuple[str, List[str], str, str]]:
    """The optional flag groups of a TU: ``(name, flags, counter,
    reason)`` — the lane flags for a TU with a lowered loop, and
    :data:`OPENMP_FLAGS` for a threaded one.  Without either the same
    source builds and gives the same bits."""
    groups = []
    if "#pragma omp simd" in source:
        lanes = LANE_FLAGS + isa_flags()
        groups.append(("lanes", lanes, "scalar_builds",
                       "no " + " ".join(lanes)))
    if _is_threaded(source):
        groups.append(("openmp", OPENMP_FLAGS, "serial_builds",
                       "no -fopenmp"))
    return groups


def _compile_flags(source: str, cc: Optional[str]) -> List[str]:
    """The flags a TU is built with: :data:`CFLAGS` plus each optional
    group ``cc`` is not known to reject (a dropped one is counted)."""
    flags = list(CFLAGS)
    for name, group, counter, reason in _flag_groups(source):
        if (cc, name) in _rejected:
            _count_build(counter, reason)
        else:
            flags += group
    return flags


def _note_rejected(source: str, cc: str) -> bool:
    """After a failed build: probe ``cc`` with each optional group not
    yet known rejected, by building an empty shared object with it.
    True when one is newly found rejected (a retry without it may
    succeed); False means the source itself does not compile."""
    found = False
    for name, group, _, _ in _flag_groups(source):
        if (cc, name) in _rejected:
            continue
        with tempfile.TemporaryDirectory() as tmp:
            proc = subprocess.run(
                [cc, *CFLAGS, *group, "-x", "c", "-", "-o",
                 os.path.join(tmp, "probe.so")],
                input="int kc_probe;\n", capture_output=True, text=True,
            )
        if proc.returncode != 0:
            _rejected.add((cc, name))
            found = True
    return found


def _so_checksum_ok(so_path: Path) -> bool:
    """True when the ``.sum`` sidecar matches the binary's content."""
    try:
        data = so_path.read_bytes()
        expected = so_path.with_suffix(".sum").read_bytes()
        return hashlib.sha256(data).hexdigest().encode() == expected.strip()
    except OSError:
        return False


def _find_cc() -> Optional[str]:
    key = (os.environ.get("CC"), os.environ.get("PATH"))
    if key in _cc_probe:
        return _cc_probe[key]
    cc = os.environ.get("CC")
    if cc and shutil.which(cc):
        _cc_probe[key] = shutil.which(cc)
        return _cc_probe[key]
    for cand in ("cc", "gcc", "clang"):
        found = shutil.which(cand)
        if found:
            _cc_probe[key] = found
            return found
    _cc_probe[key] = None
    return None


def compiler_available() -> bool:
    """Can this process compile and load native chains?

    ``REPRO_NATIVE_DISABLE_CC=1`` forces False (the CI fallback job);
    otherwise require both a C compiler on PATH and cffi.
    """
    if os.environ.get("REPRO_NATIVE_DISABLE_CC"):
        return False
    try:
        import cffi  # noqa: F401
    except ImportError:  # pragma: no cover - cffi is baked into the image
        return False
    return _find_cc() is not None


def load_native_library(source: str):
    """Compile (or fetch from cache) one TU; returns ``(ffi, lib, key)``."""
    from .. import store

    sha = source_key(source)
    cached = _mem_libs.get(sha)
    if cached is not None:
        _stats["mem_hits"] += 1
        return cached + (sha,)
    import cffi

    ffi = cffi.FFI()
    ffi.cdef(_CDEF)
    disk_ok = not store.store_disabled("native")
    cache_dir = native_cache_dir()
    cc = _find_cc()
    flags = _compile_flags(source, cc)
    lib = _disk_load(ffi, cache_dir / f"{library_key(source, flags)}.so",
                     disk_ok)
    if lib is None:
        if cc is None:
            raise NativeUnsupported("no C compiler on PATH")
        lib, err = _compile_and_load(ffi, cc, source, flags, cache_dir,
                                     disk_ok)
        if lib is None and _note_rejected(source, cc):
            # The compiler rejects an optional flag group: the same
            # source without it (serially, or scalar).
            flags = _compile_flags(source, cc)
            lib = _disk_load(
                ffi, cache_dir / f"{library_key(source, flags)}.so", disk_ok
            )
            if lib is None:
                lib, err = _compile_and_load(ffi, cc, source, flags,
                                             cache_dir, disk_ok)
        if lib is None:
            _stats["failures"] += 1
            raise NativeUnsupported(err)
    _mem_libs[sha] = (ffi, lib)
    return ffi, lib, sha


def _disk_load(ffi, so_path: Path, disk_ok: bool):
    """The cached binary at ``so_path``, or ``None`` (a miss, or a
    corrupt artifact, which is removed)."""
    from .. import store

    if not disk_ok:
        return None
    if not so_path.exists():
        store.bump("native", "disk_misses")
        return None
    # Verify the checksum sidecar before dlopen: a truncated .so can map
    # cleanly and then SIGBUS at call time, so dlopen's own error path
    # cannot be the integrity check.
    if _so_checksum_ok(so_path):
        try:
            lib = ffi.dlopen(str(so_path))
        except OSError:  # stale/foreign artifact: recompile
            pass
        else:
            _stats["disk_hits"] += 1
            store.bump("native", "disk_hits")
            return lib
    store.bump("native", "corrupt")
    store.unlink_quiet(so_path)
    store.unlink_quiet(so_path.with_suffix(".sum"))
    return None


def _compile_and_load(ffi, cc: str, source: str, flags: Sequence[str],
                      cache_dir: Path, disk_ok: bool):
    """Compile ``source`` with ``flags`` and load it: ``(lib, None)``,
    or ``(None, error)`` when the compiler fails."""
    from .. import store

    lkey = library_key(source, flags)
    so_path = cache_dir / f"{lkey}.so"
    cache_dir.mkdir(parents=True, exist_ok=True)
    if disk_ok:
        # The .c rides along for debugging; the .so is the artifact.
        store.atomic_write_bytes(cache_dir / f"{lkey}.c", source.encode())
    fd, tmp_so = tempfile.mkstemp(
        suffix=".part", prefix=f".{lkey[:12]}-", dir=str(cache_dir)
    )
    os.close(fd)
    try:
        proc = subprocess.run(
            [cc, *flags, "-x", "c", "-", "-o", tmp_so, "-lm"],
            input=source, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            return None, f"cc failed ({proc.returncode}): {proc.stderr[-800:]}"
        _stats["compiles"] += 1
        store.count_build("native")
        if not disk_ok:
            # Persistence disabled: load the private temp binary and
            # unlink it (the dlopen mapping keeps it alive).
            return ffi.dlopen(tmp_so), None
        digest = hashlib.sha256(Path(tmp_so).read_bytes()).hexdigest()
        os.replace(tmp_so, so_path)
        store.atomic_write_bytes(so_path.with_suffix(".sum"), digest.encode())
        store.bump("native", "writes")
        store.lru_sweep(
            cache_dir, store.max_entries_for("native"), "native", ["*.so"],
        )
        return ffi.dlopen(str(so_path)), None
    finally:
        if os.path.exists(tmp_so):
            os.unlink(tmp_so)


# ----------------------------------------------------------------------
# Executable chain programs
# ----------------------------------------------------------------------
class NativeChainProgram:
    """A compiled chain plus its pointer-table binding.

    The shared object is pure code — all runtime state arrives through
    the ``void **`` table, refreshed from the live arrays before every
    run, so one cached ``.so`` serves any process (and any number of
    identically-shaped chains via :meth:`rebind`).
    """

    def __init__(self, source: str, loops: Sequence,
                 recipe: List[Tuple[int, int, str]],
                 buffers: Optional[Dict[int, object]] = None,
                 verdicts: Sequence[Tuple[str, int, str, str]] = ()) -> None:
        self.source = source
        self.loops = tuple(loops)
        self.recipe = list(recipe)
        #: ``(kernel, elements, thread verdict, lane verdict)`` per loop
        #: (:class:`LoopVerdict`, :class:`LaneVerdict`).
        self.verdicts = list(verdicts)
        self.threaded = _is_threaded(source)
        #: Slots of buffers the program owns: owner ranges, and the
        #: reduction columns, allocated here.
        self._buffers = {
            slot: np.empty(b[1], dtype=b[0]) if isinstance(b, tuple) else b
            for slot, b in (buffers or {}).items()
        }
        self.ffi, self.lib, self.key = load_native_library(source)
        self._ptab = self.ffi.new("void *[]", max(1, len(recipe)))
        #: (argpos, slot) reduction pairs per loop.
        self.red_args = []
        for j, bl in enumerate(self.loops):
            reds = []
            for i, arg in enumerate(bl.args):
                if arg.is_global and arg.access.is_reduction:
                    reds.append((i, self._slot_of(arg.dat._data)))
            self.red_args.append(reds)

    def _slot_of(self, array) -> int:
        # Recompute the first-encounter slot assignment (matches the
        # emitter's _PointerTable exactly).
        for slot in range(len(self.recipe)):
            if self._recipe_array(slot, self.loops) is array:
                return slot
        raise NativeUnsupported("reduction buffer missing from pointer table")

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

    def _refresh(self, loops=None, overrides: Optional[Dict[int, np.ndarray]] = None) -> None:
        loops = self.loops if loops is None else loops
        for slot in range(len(self.recipe)):
            arr = self._recipe_array(slot, loops)
            if overrides and slot in overrides:
                arr = overrides[slot]
            self._ptab[slot] = self.ffi.cast("void *", arr.ctypes.data)

    # -- replay entry points -------------------------------------------
    def run_fused(self, repeat=None):
        """The whole chain in one call; with ``repeat`` the whole
        *repeat* (a TU built with it): returns the record per trip."""
        self._refresh()
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
            _threads["threads"] = int(self.lib.kc_threads())
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
    """Emit + compile + bind one chain (``repeat``: with its back
    edge; ``threads``: see :func:`emit_chain_source`).  Raises
    :class:`NativeUnsupported` on untranslatable kernels or compile
    failure."""
    plan = _plan_chain(loops, threads)
    source = emit_chain_source(loops, name=name, repeat=repeat,
                               threads=threads, plan=plan)
    ptab, emitters, _ = plan
    verdicts = [(em.bl.kernel.name, em.bl.n, str(em.verdict), str(em.lanes))
                for em in emitters]
    return NativeChainProgram(source, loops, ptab.recipe, ptab.buffers,
                              verdicts)


def build_eager_program(kernel, args, n: int) -> NativeChainProgram:
    """A one-loop program for eager ``par_loop`` dispatch.

    :meth:`~NativeChainProgram.run_eager` binds the caller's arguments
    on every call, so once bound the program keeps only its slot recipe
    and ``n`` — not the first call's Dats, which the backend's program
    cache would otherwise keep alive."""
    bl = _EagerLoop(kernel, tuple(args), int(n))
    program = build_chain_program([bl], name=f"eager:{kernel.name}",
                                  threads=False)
    program.loops = (_EagerLoop(kernel, (), bl.n),)
    return program
