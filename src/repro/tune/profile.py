"""Always-on lightweight instrumentation: per-loop and per-chain profiles.

The backends already time every executed loop (``Backend.stats``); this
module adds what a per-loop roofline reading needs on top:

* a **transfer profile** per loop shape — kernel class (direct / gather
  / scatter, :func:`repro.perfmodel.classify_loop`) and estimated useful
  bytes per element (:func:`repro.perfmodel.analyze_loop`'s
  infinite-cache convention), derived once per loop-cache miss from the
  plan metadata the runtime resolves anyway;
* a **compute profile** per loop — flops per element counted from the
  kernel's parsed IR (:func:`repro.kernelc.estimate_flops`), the axis
  that tells a compute-bound loop (matrix-free quadrature
  re-evaluation) from a bandwidth-bound one (SpMV) when bytes alone
  cannot;
* a **locality profile** per loop — ``gather_span``, the largest
  :meth:`~repro.core.map.Map.gather_span` among the loop's maps;
* **per-chain wall time** recorded at every flush;
* **repeat counters** — for chains with a back edge
  (:class:`repro.core.chain.Repeat`): solves, trips, how many solves
  ran as one native call, and per-trip fallbacks *by reason*, so "why
  was this solve not one call" is answerable from ``Runtime.stats()``.

Registration is defensive end to end: a loop shape the transfer model
cannot analyze (e.g. matrix staging arguments) degrades to an
``unknown`` class with zero byte estimate — profiling must never break
or slow execution — and every such degradation is counted with its
reason under ``unanalyzed``.  :meth:`RuntimeProfile.snapshot` joins the estimates
with the backend's measured timings into the ``Runtime.stats()
["profile"]`` surface (also dumpable via ``python -m repro.tune
report``).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple


class RuntimeProfile:
    """Per-runtime accumulator for loop/chain instrumentation."""

    def __init__(self) -> None:
        #: kernel name -> {"kind", "bytes_per_element",
        #: "flops_per_element", "gather_span", "n"}
        self.loops: Dict[str, Dict[str, object]] = {}
        #: joined kernel names -> {"flushes", "seconds", "loops", "tiled"}
        self.chains: Dict[str, Dict[str, object]] = {}
        #: "<estimate>: <exception type>" -> loops registered without it.
        self.unanalyzed: Dict[str, int] = {}
        #: Back-edge accounting (:meth:`record_repeat`).
        self.repeat: Dict[str, object] = {
            "solves": 0, "trips": 0, "native_calls": 0, "fallbacks": {},
        }

    # ------------------------------------------------------------------
    def register_loop(self, kernel, set_, args: Sequence) -> None:
        """Record the transfer profile of one loop shape (idempotent).

        Called from the runtime's loop-cache miss path, so the (mildly
        expensive) unique-touch analysis runs once per distinct call
        site, not once per step.
        """
        name = getattr(kernel, "name", str(kernel))
        if name in self.loops:
            return
        n = int(getattr(set_, "size", 0)) or 1
        kind = "unknown"
        bytes_per_element = 0.0
        try:
            from ..perfmodel import analyze_loop, classify_loop

            kind = classify_loop(args)
            lt = analyze_loop(set_.name, args, {}, n_elements=n)
            sizes = {set_.name: set_.size}
            itemsize = 8
            for a in args:
                if not a.is_global:
                    sizes.setdefault(a.dat.set.name, a.dat.set.size)
                    itemsize = int(a.dat.data.dtype.itemsize)
            bytes_per_element = lt.useful_bytes(n, sizes, itemsize) / n
        except Exception as exc:  # unanalyzable shape: coarse record
            self._count_unanalyzed("transfer", exc)
        flops_per_element = 0.0
        try:
            from ..kernelc import estimate_flops

            flops_per_element = float(estimate_flops(kernel))
        except Exception as exc:  # profiling must never break execution
            self._count_unanalyzed("flops", exc)
        # Worst measured locality among the loop's maps: how many
        # target rows apart consecutive elements gather (0 for a direct
        # loop).  The byte estimate above assumes an infinite cache;
        # this says how far from true that is for this numbering.
        gather_span = max(
            (a.map.gather_span() for a in args
             if not a.is_global and a.map is not None),
            default=0.0,
        )
        self.loops[name] = {
            "kind": kind,
            "bytes_per_element": float(bytes_per_element),
            "flops_per_element": flops_per_element,
            "gather_span": float(gather_span),
            "n": n,
        }

    def _count_unanalyzed(self, estimate: str, exc: Exception) -> None:
        reason = f"{estimate}: {type(exc).__name__}"
        self.unanalyzed[reason] = self.unanalyzed.get(reason, 0) + 1

    def record_repeat(
        self, trips: int, fallback: Optional[str], new_solve: bool = True
    ) -> None:
        """Account ``trips`` trips of a repeat chain.

        ``fallback`` is ``None`` when they ran inside one native call,
        else the reason they were replayed one by one; a solve driven
        from the host (body not capturable) reports its trips one call
        at a time, ``new_solve`` marking the first.
        """
        rep = self.repeat
        rep["trips"] += trips
        if new_solve:
            rep["solves"] += 1
            if fallback is None:
                rep["native_calls"] += 1
            else:
                rep["fallbacks"][fallback] = \
                    rep["fallbacks"].get(fallback, 0) + 1

    def record_chain(
        self, kernel_names: Tuple[str, ...], seconds: float, tiled: bool
    ) -> None:
        """Accumulate one chain flush (called from ``LoopChain.flush``)."""
        key = "+".join(kernel_names)
        entry = self.chains.setdefault(
            key, {"flushes": 0, "seconds": 0.0, "loops": len(kernel_names),
                  "tiled": bool(tiled)}
        )
        entry["flushes"] = int(entry["flushes"]) + 1
        entry["seconds"] = float(entry["seconds"]) + float(seconds)
        entry["tiled"] = bool(tiled)

    # ------------------------------------------------------------------
    def snapshot(self, backend_stats: Optional[Dict] = None) -> Dict:
        """The ``Runtime.stats()["profile"]`` payload.

        Joins the static per-loop estimates with the backend's measured
        ``LoopStats`` (calls / seconds / elements); ``est_gbs`` is the
        achieved useful bandwidth under the infinite-cache convention.
        ``est_flops`` / ``est_gflops`` are the IR-derived compute totals.
        """
        loops: Dict[str, Dict[str, object]] = {}
        for name, info in self.loops.items():
            fpe = float(info.get("flops_per_element", 0.0))
            bpe = float(info["bytes_per_element"])
            entry: Dict[str, object] = {
                "kind": info["kind"],
                "bytes_per_element": bpe,
                "flops_per_element": fpe,
                "gather_span": float(info.get("gather_span", 0.0)),
                "calls": 0,
                "seconds": 0.0,
                "elements": 0,
                "est_bytes": 0,
                "est_flops": 0,
                "est_gbs": 0.0,
                "est_gflops": 0.0,
            }
            st = (backend_stats or {}).get(name)
            if st is not None:
                entry["calls"] = int(st.calls)
                entry["seconds"] = float(st.elapsed)
                entry["elements"] = int(st.elements)
                entry["est_bytes"] = int(bpe * st.elements)
                entry["est_flops"] = int(fpe * st.elements)
                if st.elapsed > 0:
                    entry["est_gbs"] = float(entry["est_bytes"]) / (
                        st.elapsed * 1e9
                    )
                    entry["est_gflops"] = float(entry["est_flops"]) / (
                        st.elapsed * 1e9
                    )
            loops[name] = entry
        return {
            "loops": loops,
            "chains": {k: dict(v) for k, v in self.chains.items()},
            "unanalyzed": dict(self.unanalyzed),
            "repeat": {**self.repeat,
                       "fallbacks": dict(self.repeat["fallbacks"])},
        }
