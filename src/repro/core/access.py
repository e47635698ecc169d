"""Access descriptors for :func:`repro.core.loop.par_loop` arguments.

This mirrors the OP2 ``op_arg_dat`` / ``op_arg_gbl`` API from the paper
(Section 3): every argument to a parallel loop declares *what* data it
touches, *through which* mapping (if any) and *how* it is accessed.  The
access mode is what lets the runtime detect potential data races (indirect
``INC``/``RW``/``WRITE``) and build a race-free execution plan.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .dat import Dat
    from .glob import Global
    from .map import Map


class Access(enum.Enum):
    """How a parallel-loop argument accesses its data.

    Matches OP2's ``OP_READ``/``OP_WRITE``/``OP_RW``/``OP_INC`` plus the
    global-reduction modes ``OP_MIN``/``OP_MAX`` used by Volna's
    ``numerical_flux`` (minimum time step) and Airfoil's ``update``
    (residual sum).
    """

    READ = "read"
    WRITE = "write"
    RW = "rw"
    INC = "inc"
    MIN = "min"
    MAX = "max"

    #: Members are singletons, so identity hashing is exact — and it is
    #: C-level, where Enum's own ``__hash__`` is a Python call per
    #: lookup (every argument of a chain-cache key hashes one).
    __hash__ = object.__hash__

    @property
    def writes(self) -> bool:
        """True if this access may modify the underlying data."""
        return self is not Access.READ

    @property
    def reads(self) -> bool:
        """True if this access observes existing values."""
        return self not in (Access.WRITE,)

    @property
    def is_reduction(self) -> bool:
        """True for commutative-reduction accesses (INC/MIN/MAX)."""
        return self in (Access.INC, Access.MIN, Access.MAX)


#: Access modes that store without reducing.
_PLAIN_WRITES = (Access.WRITE, Access.RW)

#: Module-level aliases so applications can write ``READ`` instead of
#: ``Access.READ`` — mirroring OP2's C macros.
READ = Access.READ
WRITE = Access.WRITE
RW = Access.RW
INC = Access.INC
MIN = Access.MIN
MAX = Access.MAX


#: Sentinel index meaning "no indirection": the dat lives on the iteration
#: set itself (OP2 uses ``OP_ID`` with index -1).
IDX_ID = -1

#: Sentinel index meaning "all map indices at once" — the kernel receives a
#: ``(arity, dim)`` view (OP2's ``OP_ALL`` vector-argument extension).
IDX_ALL = -2


@dataclass(frozen=True)
class Arg:
    """A fully-described parallel-loop argument.

    Parameters
    ----------
    dat:
        The :class:`~repro.core.dat.Dat` or :class:`~repro.core.glob.Global`
        being accessed.
    index:
        Which slot of the mapping to use (``0 .. map.arity-1``), or
        :data:`IDX_ID` for direct access, or :data:`IDX_ALL` for a
        vector-argument covering every slot.
    map:
        The :class:`~repro.core.map.Map` used for indirection, or ``None``
        for direct/global arguments.
    access:
        The :class:`Access` mode.
    """

    dat: object
    index: int
    map: Optional[object]
    access: Access

    def __post_init__(self) -> None:
        from .dat import Dat
        from .glob import Global
        from .map import Map

        if isinstance(self.dat, Global):
            if self.map is not None:
                raise ValueError("Global arguments cannot use a mapping")
            # WRITE/RW are legal only in a single-element ("scalar")
            # loop; that needs the iteration set, so
            # :func:`repro.core.loop.validate_loop` checks it.
            return
        if not isinstance(self.dat, Dat):
            raise TypeError(f"Arg dat must be a Dat or Global, got {type(self.dat)!r}")
        if self.map is not None:
            if not isinstance(self.map, Map):
                raise TypeError(f"Arg map must be a Map, got {type(self.map)!r}")
            if self.map.to_set is not self.dat.set:
                raise ValueError(
                    f"Map {self.map.name!r} targets set {self.map.to_set.name!r} "
                    f"but dat {self.dat.name!r} lives on {self.dat.set.name!r}"
                )
            if self.index == IDX_ID:
                raise ValueError("Indirect arguments need an index >= 0 or IDX_ALL")
            if self.index != IDX_ALL and not (0 <= self.index < self.map.arity):
                raise ValueError(
                    f"Map index {self.index} out of range for arity {self.map.arity}"
                )
        else:
            if self.index not in (IDX_ID,):
                raise ValueError("Direct arguments must use index IDX_ID (-1)")

    # ------------------------------------------------------------------
    # Classification helpers used by the planner and the backends.
    # ------------------------------------------------------------------
    @property
    def is_global(self) -> bool:
        from .glob import Global

        return isinstance(self.dat, Global)

    @property
    def is_direct(self) -> bool:
        return not self.is_global and self.map is None

    @property
    def is_indirect(self) -> bool:
        return self.map is not None

    @property
    def is_vector(self) -> bool:
        """True when the argument passes every map slot at once."""
        return self.index == IDX_ALL

    @property
    def races(self) -> bool:
        """True when this argument can cause inter-element data races.

        Indirect modified data is the only source of races in the OP2 model:
        two iteration-set elements may map to the same target element.
        """
        return self.is_indirect and self.access.writes

    def describe(self) -> str:
        """Human-readable one-line summary (for plan debugging)."""
        if self.is_global:
            return f"gbl({self.dat.name}, {self.access.name})"
        if self.is_direct:
            return f"dat({self.dat.name}, direct, {self.access.name})"
        idx = "ALL" if self.is_vector else str(self.index)
        return f"dat({self.dat.name}, {self.map.name}[{idx}], {self.access.name})"


def is_scalar_loop(args) -> bool:
    """Whether a loop stores into a Global (``WRITE``/``RW``).

    Such a loop iterates a single-element set (``validate_loop``
    enforces it) and is the chain's scalar algebra: ``alpha = rs / pAp``,
    "rotate ``rs <- rs_new``, zero the accumulators, raise the stop
    flag".  Every backend runs it through the scalar kernel on the
    Globals' own storage (the native emitter lowers it like any other
    loop, with a writable ``g<slot>``); fusion and tiling treat it as a
    barrier.
    """
    return any(
        arg.access in _PLAIN_WRITES and arg.is_global for arg in args
    )


def arg_dat(dat, index: int, map_, access: Access) -> Arg:
    """OP2-style ``op_arg_dat`` constructor.

    ``arg_dat(p_x, 0, edge2node, READ)`` reads ``p_x`` through slot 0 of the
    ``edge2node`` map; ``arg_dat(p_q, IDX_ID, None, READ)`` reads directly.
    """
    return Arg(dat=dat, index=index, map=map_, access=access)


def arg_gbl(glob, access: Access) -> Arg:
    """OP2-style ``op_arg_gbl`` constructor for global reductions/constants."""
    return Arg(dat=glob, index=IDX_ID, map=None, access=access)
