"""Span recorder installed from outside around repro's public entry points.

The benchmark touches nothing under ``src/``: every layer boundary is
instrumented here by rebinding the public callable (a class attribute,
or a module-level function together with every ``from x import f`` alias
of it found in ``sys.modules``) to a timing wrapper, and restoring the
originals afterwards.  A span is ``[name, start, end, parent, unit,
label]``: ``parent`` is the index of the span that was open when this
one started (-1 for none), ``unit`` the id of the unit of work being
executed (-1 during set-up), ``label`` a kernel name or store kind.
Spans are held in memory; :func:`write_chrome_trace` dumps them when
the run ends.  A span's *self time* is its duration minus the part its
children cover (``layers.self_time_table``).
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from time import perf_counter

NAME, START, END, PARENT, UNIT, LABEL = range(6)


class Recorder:
    """In-memory span store with an open-span stack.

    Spans are recorded column-wise (one list per field, holding only
    strings and numbers): a traced ``aero_solve`` run records ~14k spans
    per unit, and that many small container objects would make the
    cyclic garbage collector's full passes a measurable part of a unit.
    :meth:`rows` assembles the row form for analysis afterwards.
    """

    def __init__(self) -> None:
        self.names, self.starts, self.ends = [], [], []
        self.parents, self.units, self.labels = [], [], []
        self.stack = []
        self.unit = -1
        #: Distinct compiled chains seen by ``compiled_chain_for``,
        #: keyed by ``id`` (kept alive here so ids stay unique).
        self.chains = {}
        self._installed = []

    def __len__(self) -> int:
        return len(self.names)

    def rows(self):
        """Spans as ``[name, start, end, parent, unit, label]`` rows."""
        return [list(r) for r in zip(self.names, self.starts, self.ends,
                                     self.parents, self.units, self.labels)]

    # -- recording -----------------------------------------------------
    def _open(self, name, label) -> int:
        i = len(self.names)
        stack = self.stack
        self.names.append(name)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.parents.append(stack[-1] if stack else -1)
        self.units.append(self.unit)
        self.labels.append(label)
        stack.append(i)
        return i

    @contextmanager
    def span(self, name, label=None):
        """A span opened by the benchmark's own code."""
        i = self._open(name, label)
        t0 = perf_counter()
        try:
            yield i
        finally:
            self.ends[i] = perf_counter()
            self.starts[i] = t0
            self.stack.pop()

    def wrap(self, name, fn, label_of=None, on_result=None):
        """Timing wrapper around ``fn`` (exceptions close the span too)."""
        starts, ends, stack, open_span = (
            self.starts, self.ends, self.stack, self._open)

        def wrapped(*args, **kwargs):
            i = open_span(
                name, label_of(args) if label_of is not None else None)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                starts[i] = t0
                stack.pop()
            if on_result is not None:
                on_result(out)
            return out

        wrapped.__wrapped__ = fn
        return wrapped

    # -- installation --------------------------------------------------
    def _patch_attr(self, owner, attr, name, label_of=None, on_result=None):
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, label_of, on_result))
        self._installed.append((owner, attr, original))

    def _patch_function(self, module, attr, name, label_of=None):
        """Rebind a module-level function and every alias of it.

        ``from .loop import par_loop`` copies the function object into
        the importing module's globals, so the wrapper has to replace
        each copy; only modules of the ``repro`` package are scanned.
        """
        original = getattr(module, attr)
        wrapped = self.wrap(name, original, label_of)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (
                modname == "repro" or modname.startswith("repro.")
            ):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._installed.append((mod, key, original))

    def install(self) -> None:
        """Wrap the entry points of every measured layer.

        Import every module whose aliases must be rebound *before*
        calling this (the worker imports all three apps first).
        """
        from importlib import import_module

        from repro.backends.base import Backend
        from repro.backends.native import NativeBackend
        from repro.backends.vectorized import VectorizedBackend
        from repro.core.runtime import Runtime
        from repro.kernelc.native import NativeChainProgram
        from repro.store.base import ArtifactStore

        # By module path: packages re-export same-named functions
        # (``repro.core.chain``, ``repro.solve.cg``) over the submodules.
        core_chain = import_module("repro.core.chain")
        core_loop = import_module("repro.core.loop")
        core_plan = import_module("repro.core.plan")
        solve_cg_module = import_module("repro.solve.cg")
        kc_native = import_module("repro.kernelc.native")
        kc_vector = import_module("repro.kernelc.vector")
        tiling_inspector = import_module("repro.tiling.inspector")

        def kernel_label(args):
            return args[0].name

        def loop_label(args):
            return args[1].name  # (backend, kernel, ...)

        def store_label(args):
            return args[0].kind

        def keep_chain(compiled):
            self.chains.setdefault(id(compiled), compiled)

        self._patch_function(core_loop, "par_loop", "core.par_loop",
                             kernel_label)
        self._patch_function(core_chain, "compile_chain",
                             "core.compile_chain")
        self._patch_function(core_plan, "build_plan", "plan.build")
        self._patch_function(solve_cg_module, "cg", "solve.cg")
        self._patch_function(kc_native, "emit_chain_source",
                             "kernelc.native_emit")
        self._patch_function(kc_native, "load_native_library",
                             "kernelc.native_cc")
        self._patch_function(kc_vector, "compile_vector",
                             "kernelc.vector_emit")
        self._patch_function(tiling_inspector, "build_tiled_schedule",
                             "tiling.inspect")
        self._patch_attr(core_chain.LoopChain, "flush", "core.flush")
        self._patch_attr(Runtime, "compiled_chain_for", "core.chain_lookup",
                         on_result=keep_chain)
        self._patch_attr(Runtime, "plan_for", "core.plan_for")
        self._patch_attr(Backend, "execute", "backends.execute", loop_label)
        for cls in (Backend, VectorizedBackend, NativeBackend):
            self._patch_attr(cls, "run_chain", "backends.run_chain")
            self._patch_attr(cls, "run_tiled", "backends.run_tiled")
        # The compiled program's entry points: pointer-table refresh plus
        # the one cffi call — the native backend's execution proper.
        for method in ("run_fused", "run_loop", "run_eager"):
            self._patch_attr(NativeChainProgram, method, "kernelc.native_run")
        self._patch_attr(ArtifactStore, "get", "store.get", store_label)
        self._patch_attr(ArtifactStore, "put", "store.put", store_label)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def parents_nest(spans) -> bool:
    """Every child lies inside its parent and starts after it."""
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p < 0:
            continue
        if p >= i:
            return False
        ps = spans[p]
        if s[START] < ps[START] or s[END] > ps[END] or s[UNIT] != ps[UNIT]:
            return False
    return True


def outermost(spans, prefix):
    """Indices of spans named ``prefix*`` with no such ancestor."""
    out = []
    for i, s in enumerate(spans):
        if not s[NAME].startswith(prefix):
            continue
        p = s[PARENT]
        while p >= 0 and not spans[p][NAME].startswith(prefix):
            p = spans[p][PARENT]
        if p < 0:
            out.append(i)
    return out


def write_chrome_trace(spans, path, max_unit=None) -> int:
    """Dump spans as Chrome-trace ("X" complete) events; returns count.

    ``max_unit`` keeps set-up spans and the units below it (a traced
    ``aero_solve`` run holds ~10k spans per unit).
    """
    if not spans:
        origin = 0.0
    else:
        origin = min(s[START] for s in spans)
    events = []
    for i, s in enumerate(spans):
        if max_unit is not None and s[UNIT] >= max_unit:
            continue
        events.append({
            "name": s[NAME] if s[LABEL] is None
            else f"{s[NAME]}:{s[LABEL]}",
            "cat": s[NAME].split(".", 1)[0],
            "ph": "X",
            "pid": 0,
            "tid": 0,
            "ts": (s[START] - origin) * 1e6,
            "dur": (s[END] - s[START]) * 1e6,
            "args": {"id": i, "parent": s[PARENT], "unit": s[UNIT]},
        })
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
    return len(events)
