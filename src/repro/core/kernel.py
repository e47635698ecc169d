"""Elementary kernels — the "user code" of the OP2 abstraction.

The paper generates three incarnations of every user kernel from one
high-level source: the scalar C function, an intrinsics version operating
on vector registers, and an OpenCL version.  Here a :class:`Kernel`
carries the **scalar form only**; batched incarnations are *derived* from
it by the kernel compiler (:mod:`repro.kernelc`), which parses the scalar
source into a small IR and emits a batched NumPy kernel per
argument-shape signature:

``scalar``
    Per-element function; each Dat argument is a 1-D view of shape
    ``(dim,)`` (or ``(arity, dim)`` for vector arguments), each Global
    argument a 1-D accumulator.  Mutates in place.

``vector_for(args)``
    The batched form for one loop's argument shapes: each Dat argument
    becomes a 2-D array of shape ``(lanes, dim)`` (or ``(lanes, arity,
    dim)``), reduction Globals a ``(lanes, dim)`` per-lane accumulator
    folded by the backend, READ Globals broadcast constants.  Served
    from the per-shape compile cache; an explicitly attached ``vector``
    callable (tests, special cases) takes precedence over generation.
    Returns ``None`` when the scalar source cannot be vectorized (e.g.
    lane-dependent indexing — the case the paper's compiler
    auto-vectorizer gives up on), and the backends run scalar.

Kernels also carry the arithmetic metadata (FLOPs, transcendental counts)
that Tables II/III of the paper report and the performance model consumes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

_uid_counter = itertools.count()


@dataclass(frozen=True)
class KernelInfo:
    """Per-element arithmetic cost metadata (paper Tables II and III).

    ``flops`` counts useful floating point operations per set element,
    with transcendental operations (sin, cos, exp, sqrt) counted as one —
    exactly the accounting rule of Section 6.1.  ``transcendentals`` is
    broken out separately because the performance model weighs them by
    their (much larger) reciprocal throughput.
    """

    flops: int = 0
    transcendentals: int = 0
    description: str = ""


class Kernel:
    """A named elementary kernel defined by its scalar source.

    Parameters
    ----------
    name:
        Kernel identifier (used in plan caches, reports and tables).
    scalar:
        The per-element function — the *only* form applications write.
    vector:
        Optional hand-written batched function overriding the generated
        one (kept for tests and exotic kernels outside the IR subset);
        ``None`` (the default) derives the vector form from ``scalar``
        through :mod:`repro.kernelc`.
    info:
        Arithmetic metadata for the performance model.
    vectorizable_simt:
        Whether the paper's OpenCL compiler vectorizes this kernel on
        the CPU.  Table VI shows the Intel OpenCL compiler vectorizing a
        *different* subset of kernels on CPU vs Phi; this flag carries
        the CPU answer (the Phi compiler vectorizes any kernel with a
        vector form).  Only the performance model reads it
        (:mod:`repro.perfmodel.workloads`).
    """

    def __init__(
        self,
        name: str,
        scalar: Callable,
        vector: Optional[Callable] = None,
        info: Optional[KernelInfo] = None,
        vectorizable_simt: bool = True,
    ) -> None:
        if not callable(scalar):
            raise TypeError("Kernel scalar form must be callable")
        if vector is not None and not callable(vector):
            raise TypeError("Kernel vector form must be callable or None")
        self.name = name
        self.scalar = scalar
        self.vector = vector
        self.info = info if info is not None else KernelInfo()
        self.vectorizable_simt = bool(vectorizable_simt)
        #: Stable identity for the per-shape compile cache.
        self._uid = next(_uid_counter)

    @property
    def has_vector_form(self) -> bool:
        """Whether *some* batched form exists: an explicit override, or a
        derivable one (the scalar source parses into the kernel IR)."""
        if self.vector is not None:
            return True
        from ..kernelc import vectorizable

        return vectorizable(self)

    def vector_for(self, args: Sequence) -> Optional[Callable]:
        """The batched form for one loop's argument shapes, or ``None``.

        An explicitly attached ``vector`` callable wins; otherwise the
        kernel compiler's per-shape cache answers (compiling on first
        sight, remembering failures).
        """
        if self.vector is not None:
            return self.vector
        from ..kernelc import vector_kernel_for

        return vector_kernel_for(self, args)

    def __call__(self, *args) -> None:
        """Calling the kernel directly invokes the scalar form."""
        self.scalar(*args)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        forms = "scalar+vector" if self.has_vector_form else "scalar"
        return f"Kernel({self.name!r}, {forms}, flops={self.info.flops})"


def kernel(
    name: str,
    *,
    flops: int = 0,
    transcendentals: int = 0,
    description: str = "",
    vectorizable_simt: bool = True,
):
    """Decorator form: wrap a scalar function as a :class:`Kernel`.

    The batched form is derived automatically; a hand-written override
    can still be attached through the returned object's ``vectorized``
    decorator (used by tests pinning exact batched semantics)::

        @kernel("axpy", flops=2)
        def axpy(x, y):
            y[0] += 2.0 * x[0]

        @axpy.vectorized  # optional — axpy vectorizes by itself
        def axpy_vec(x, y):
            y[:, 0] += 2.0 * x[:, 0]
    """

    def wrap(fn: Callable) -> Kernel:
        k = Kernel(
            name,
            fn,
            info=KernelInfo(flops, transcendentals, description),
            vectorizable_simt=vectorizable_simt,
        )

        def vectorized(vfn: Callable) -> Callable:
            k.vector = vfn
            return vfn

        k.vectorized = vectorized  # type: ignore[attr-defined]
        return k

    return wrap
