"""``par_loop`` — the OP2 parallel-loop entry point (paper Fig 2a).

Dispatches an elementary kernel over every element of a set, with data
access fully described by :class:`~repro.core.access.Arg` descriptors.
The runtime builds (or fetches from cache) a race-free execution plan and
hands off to the configured backend.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .access import Access, Arg
from .kernel import Kernel
from .plan import Plan
from .runtime import Runtime, default_runtime
from .set import Set


def validate_loop(kernel: Kernel, set_: Set, args: Sequence[Arg]) -> None:
    """Static checks OP2's code generator would perform."""
    if not isinstance(kernel, Kernel):
        raise TypeError(f"par_loop expects a Kernel, got {type(kernel)!r}")
    if not isinstance(set_, Set):
        raise TypeError(f"par_loop expects a Set, got {type(set_)!r}")
    for i, arg in enumerate(args):
        if not isinstance(arg, Arg):
            raise TypeError(f"argument {i} is not an Arg (use arg_dat/arg_gbl)")
        if arg.is_global:
            if (
                arg.access in (Access.WRITE, Access.RW)
                and set_.size != 1
            ):
                raise ValueError(
                    f"argument {i} ({arg.dat.name!r}) stores into a Global "
                    f"with {arg.access.name}; that is legal only in a "
                    f"loop over a single-element set, and {set_.name!r} "
                    f"has {set_.size} (use a reduction: INC/MIN/MAX)"
                )
            continue
        if arg.is_direct:
            if arg.dat.set is not set_:
                raise ValueError(
                    f"direct argument {i} ({arg.dat.name!r}) lives on set "
                    f"{arg.dat.set.name!r}, loop iterates {set_.name!r}"
                )
        else:
            if arg.map.from_set is not set_:
                raise ValueError(
                    f"indirect argument {i} maps from {arg.map.from_set.name!r}, "
                    f"loop iterates {set_.name!r}"
                )


def par_loop(
    kernel: Kernel,
    set_: Set,
    *args: Arg,
    runtime: Optional[Runtime] = None,
    plan: Optional[Plan] = None,
) -> None:
    """Execute ``kernel`` for every element of ``set_``.

    Parameters
    ----------
    kernel:
        The elementary :class:`~repro.core.kernel.Kernel`.
    set_:
        Iteration set.
    args:
        One :class:`~repro.core.access.Arg` per kernel parameter, in
        kernel-signature order (built with ``arg_dat`` / ``arg_gbl``).
    runtime:
        Execution context; the module default when omitted.
    plan:
        Pre-built plan override (used by ablation benchmarks).

    Deferred execution
    ------------------
    When the runtime has an active :class:`~repro.core.chain.LoopChain`
    (``with runtime.chain():``), the call *records* instead of
    executing.  Both validation and execution then happen at the
    chain's flush point (block exit, or the first host read of a
    touched Dat/Global) — validation once per distinct trace signature,
    so a malformed loop raises at its trace's first flush rather than
    at this call site.  Results are bitwise identical either way.
    """
    rt = runtime if runtime is not None else default_runtime()
    ch = rt._active_chain
    if ch is not None:
        ch.record(kernel, set_, args, plan=plan)
        return
    validate_loop(kernel, set_, args)
    if plan is None:
        # Two-level lookup: call-site loop cache, then structural plan
        # cache (see core/runtime.py) — a warm hit re-derives nothing.
        plan = rt.plan_for(kernel, set_, args)
    rt.backend.execute(kernel, set_, args, plan)
