"""Native chain compilation: one C translation unit per loop chain.

The second kernelc emitter.  :mod:`repro.kernelc.vector` derives
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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.access import Access
from ..core.map import MAP_DTYPE
from ..core.plan import OwnerRanges, owner_ranges
from . import lower
from .build import is_threaded, load_native_library, note_threads
from .cache import kernel_ir
from .ir import SAssign, SAug, SFor, SIf, is_lane_safe_helper, stmt_nodes
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
#: Identifiers the emitter itself generates inside a loop body.
_EMITTER_NAMES = frozenset({"e", "l", "r", "lo", "hi", "P", "NAN", "INFINITY"})
_GENERATED_RE = re.compile(r"^(?:[dmgv]\d+|i\d+|kc_\w+|h\d+_\w*)$")
_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


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

    def constant(self, name: str):
        """What ``name`` denotes at compile time: an unrolled loop
        variable's value, else its namespace object; ``None`` for a
        local, an alias or a parameter."""
        if name in self.loops:
            return self.loops[name]
        if name in self.rename or name in self.aliases or name in self.params:
            return None
        return self.ns.get(name)


def _alias(r: tuple) -> tuple:
    """A scope alias for a partial subscript :meth:`_LoopEmitter.
    _resolve_access` resolved: a parameter row, or a closure array."""
    return ("arg", r[1], r[2]) if r[0] == "alias" else ("ns", r[1])


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


class _Unpacketable(Exception):
    """A store the ordered scatter cannot defer (raised while emitting)."""


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
        self.lit = lower.Literals("float32" if self.ft == "float"
                                  else "float64")
        self.sfx = self.lit.sfx

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
        mapped, ind_w, dir_w = self._writes()
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

    def _writes(self):
        """The mapped arguments, and the slots written through a map
        and directly."""
        mapped = [s for s in self.specs if s.kind in ("indirect", "vector")]
        return (mapped, {s.slot for s in mapped if s.access.writes},
                {s.slot for s in self.specs
                 if s.kind == "direct" and s.access.writes})

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
        mapped, ind_w, dir_w = self._writes()
        if not mapped:
            # A stream of rows: bound by memory traffic, and a third of
            # a lowered airfoil step's build time when vectorized.
            return scalar("no gather")
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
                comp = lower.const_int(node.slice, scope.constant)
                return None if comp is None else (params[node.value.id], comp)
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
                    and lower.op_for(lower.callee(st.value.func, scope.ns)) \
                    in (lower.FMIN, lower.FMAX, lower.MIN, lower.MAX):
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
            1 for st in self.ir.body for node in stmt_nodes(st)
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

    # -- small helpers --------------------------------------------------
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
                self._value_reads.add(r[1])
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
        return op.c.format(b, e, f=self.sfx)

    def _call(self, node: ast.Call, scope: _Scope) -> str:
        op = lower.op_for(lower.callee(node.func, scope.ns))
        if op is None or op.c is None or node.keywords or (
                op.arity is not None and len(node.args) != op.arity):
            raise NativeUnsupported(
                f"call {ast.unparse(node.func)!r} has no C lowering")
        args = [self._cond(a, scope) if op.test and i == 0
                else self._cx(a, scope) for i, a in enumerate(node.args)]
        return op.c.format(*args, f=self.sfx, one=self.lit.c(1.0))

    # -- helper inlining ------------------------------------------------
    def _helper(self, node, scope: _Scope) -> Optional[lower.Helper]:
        """The lane-safe helper a statement-level call invokes, if any."""
        if not isinstance(node, ast.Call):
            return None
        fn = lower.callee(node.func, scope.ns)
        h = lower.helper(fn) if lower.op_for(fn) is None else None
        return h if h is not None and is_lane_safe_helper(fn) else None

    def _inline_helper(self, h: lower.Helper, call: ast.Call,
                       targets: List[str], scope: _Scope, out: List[str],
                       ind: str) -> None:
        pf = f"h{self._hc}_"
        self._hc += 1
        if len(h.params) != len(call.args) or len(h.returns) != len(targets):
            raise NativeUnsupported(
                f"helper {h.name}: {len(call.args)} arguments / "
                f"{len(targets)} targets do not match its signature")
        hscope = _Scope(ns=h.ns)
        out.append(f"{ind}/* inlined {h.name}() */")
        for p, anode in zip(h.params, call.args):
            cn = pf + p
            out.append(f"{ind}const {self.ft} {cn} = {self._cx(anode, scope)};")
            hscope.rename[p] = cn
        for st in h.body:
            self._helper_assign(st, pf, hscope, out, ind)
        tmps = []
        for i, rv in enumerate(h.returns):
            tn = f"{pf}r{i}"
            out.append(f"{ind}const {self.ft} {tn} = {self._cx(rv, hscope)};")
            tmps.append(tn)
        for tgt, tn in zip(targets, tmps):
            out.append(f"{ind}{tgt} = {tn};" if isinstance(tgt, str)
                       else f"{ind}{self._store(tgt, scope, '=', tn)}")

    def _helper_assign(self, st: ast.Assign, pf: str, hscope: _Scope,
                       out: List[str], ind: str) -> None:
        names = lower.target_names(st.targets[0])

        def bind(name: str) -> str:
            if name in hscope.rename:
                return hscope.rename[name]
            cn = pf + name
            hscope.rename[name] = cn
            out.append(f"{ind}{self.ft} {cn};")
            return cn

        inner = self._helper(st.value, hscope)
        if inner is not None:
            self._inline_helper(inner, st.value, [bind(n) for n in names],
                                hscope, out, ind)
            return
        if isinstance(st.targets[0], ast.Tuple):
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
            op = lower.AUGOPS.get(type(st.op))
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
        (tgt,) = st.targets
        # Array aliasing: ``x1 = x[k]`` binds a row, emits nothing.
        if isinstance(tgt, ast.Name) and isinstance(st.value, ast.Subscript):
            r = self._resolve_access(st.value, scope)
            if r[0] in ("alias", "nsarr"):
                scope.aliases[tgt.id] = _alias(r)
                return
        # Helper call: inline at statement level.
        h = self._helper(st.value, scope)
        if h is not None:
            # Locals resolve now (binding order); stores at the end.
            targets = [
                t if isinstance(t, ast.Subscript)
                else self._target_code(t, scope)
                for t in (tgt.elts if isinstance(tgt, ast.Tuple) else [tgt])
            ]
            self._inline_helper(h, st.value, targets, scope, out, ind)
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
                    scope.aliases[t.id] = _alias(val)
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
        # Recursive closures hold their own cells: clear them, so the
        # emitter and the loops it read die by reference counting.
        del scan_assign, walk
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
        # unrolled across lanes, so each slot is a scalar of the lane,
        # and in a scalar loop up to UNROLL_MAX_VALUES values.
        for k, spec in enumerate(self.specs):
            if spec.kind != "vector":
                continue
            size = spec.arity * spec.dim
            if spec.access is Access.INC:
                body.append(f"{ind}{self.ft} v{k}[{size}] = {{0.0{self.sfx}}};")
                continue
            body.append(f"{ind}{self.ft} v{k}[{size}];")
            if lanes != "scalar" or size <= UNROLL_MAX_VALUES:
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
            if spec.arity * spec.dim <= UNROLL_MAX_VALUES:
                body.extend(self._unrolled_writeback(k, op, ind))
                continue
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
                ident = {"INC": self.lit.c(0.0), "MIN": maxlit,
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

    def _unrolled_writeback(self, k: int, op: str, ind: str) -> List[str]:
        """Vector argument ``k``'s writeback, one row at a time: the
        gather's named row indices (an ``INC`` has no gather and names
        its own), each row's stores under its owner guard."""
        spec = self.specs[k]
        out: List[str] = []
        for l in range(spec.arity):
            row = f"kc_r{k}_{l}"
            if spec.access is Access.INC:
                out.append(f"{ind}const i64 {row} = "
                           f"m{spec.map_slot}[e * {spec.arity} + {l}];")
            stores = [f"{self._addr(spec, row, c)} {op} "
                      f"v{k}[{l * spec.dim + c}];" for c in range(spec.dim)]
            owned = self._owned(k, row)
            if owned:
                out.append(f"{ind}if ({owned}) {{")
                out.extend(f"{ind}    {st}" for st in stores)
                out.append(f"{ind}}}")
            else:
                out.extend(f"{ind}{st}" for st in stores)
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
    ptab, emitters, _ = plan
    verdicts = [(em.bl.kernel.name, em.bl.n, str(em.verdict), str(em.lanes))
                for em in emitters]
    return NativeChainProgram(source, ptab.recipe, ptab.buffers, verdicts,
                              [em.red_args for em in emitters])


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
