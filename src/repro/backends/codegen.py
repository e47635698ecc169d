"""Scalar code-generation backend: run the specialized per-shape stubs.

The stub *emitter* lives in :mod:`repro.kernelc.scalar` (the kernel
compilation package); this backend is its executor — it caches the
compiled stub per loop shape and dispatches to it, exactly OP2's
generate-once / run-many build flow with the generated source
inspectable (``stub.__source__``) for tests and the curious.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

from ..core.access import Arg
from ..kernelc.scalar import compile_loop, loop_shape_key, supports
from .base import Backend, run_scalar_element


class CodegenBackend(Backend):
    """Scalar backend running generated specialized stubs.

    Semantically identical to :class:`SequentialBackend` (element order,
    single process, no races); the specialization removes the generic
    per-element argument dispatch, exactly as OP2's generated pure-MPI
    stub removes its function-pointer dispatcher.
    """

    name = "codegen"

    def __init__(self) -> None:
        super().__init__()
        self._compiled: Dict[Tuple, Callable] = {}
        self.generated = 0

    def stub_for(self, kernel, args: Sequence[Arg]) -> Optional[Callable]:
        if not supports(args):
            return None
        key = loop_shape_key(kernel.name, args)
        fn = self._compiled.get(key)
        if fn is None:
            fn = compile_loop(kernel.name, args)
            self._compiled[key] = fn
            self.generated += 1
        return fn

    def _run(self, kernel, set_, args, plan, n, reductions) -> None:
        stub = self.stub_for(kernel, args)
        if stub is None:
            # Unsupported shape: generic interpreter fallback.
            for e in range(n):
                run_scalar_element(kernel.scalar, args, e, reductions)
            return
        data = [arg.dat.data for arg in args]
        maps = [
            arg.map.values if arg.map is not None else None for arg in args
        ]
        stub(0, n, kernel.scalar, data, maps, reductions)

    def tiled_profile(self, compiled) -> str:
        # The generated stubs sweep [0, n) in ascending element
        # order with per-element operations identical to the generic
        # interpreter's, so the generic tiled executor replays the
        # same sequence.
        return "ascending"
