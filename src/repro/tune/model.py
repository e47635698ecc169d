"""Candidate configurations and their roofline-seeded ranking.

The tuner does not probe blindly: the candidate set is ordered by a
prediction built from :mod:`repro.perfmodel`'s calibrated memory
efficiencies (per kernel class — direct / gather / scatter) before any
wall-clock probe runs, so the short measured phase only has to
discriminate among the model's top picks.  This is the link the ISSUE
calls out: the perfmodel tables stop being display-only and gate real
execution decisions (pinned by ``tests/test_autotune.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence


@dataclass(frozen=True)
class TuneCandidate:
    """One point in the negotiated configuration space."""

    backend: str = "vectorized"
    layout: str = "aos"
    chained: bool = True
    tiling: object = None  # None | "auto" | int
    #: Operator realization for apps that offer one ("assembled" |
    #: "matfree"); ``None`` for workloads without the axis.
    operator: Optional[str] = None

    def label(self) -> str:
        mode = "eager"
        if self.chained:
            mode = "chained" if self.tiling is None else f"tiled({self.tiling})"
        base = f"{self.backend}/{self.layout}/{mode}"
        return base if self.operator is None else f"{base}/{self.operator}"


@dataclass(frozen=True)
class Pins:
    """Axes the caller fixed explicitly (never overridden by tuning)."""

    layout: Optional[str] = None
    chained: Optional[bool] = None
    tiling: object = None
    tiling_pinned: bool = False
    operator: Optional[str] = None


#: How each backend consumes the calibration's efficiency tables.
_BACKEND_STYLE = {
    "sequential": "scalar",
    "codegen": "scalar",
    "openmp": "scalar",
    "simt": "vec",
    "vectorized": "vec",
    "native": "vec",
}

#: Python-side interpretation cost per iteration element (seconds); the
#: dominant term for the scalar backends, negligible for batched ones.
_PER_ELEMENT_S = {"scalar": 1.0e-6, "vec": 3e-9, "native": 1e-9}

#: Per-loop dispatch overhead (plan lookup, view binding, one Python
#: call per color) — what chaining amortizes.
_PER_LOOP_S = {"scalar": 3e-5, "vec": 1.2e-4, "native": 3e-5}

#: Assumed streaming bandwidth for the seed ranking (GB/s).  Only the
#: *relative* ordering matters — probes measure the truth — so a
#: generic DDR figure is fine; the calibration fit refines the
#: efficiency fractions, not this peak.
DEFAULT_PEAK_GBS = 25.0

#: Assumed batched-arithmetic peak for the compute roofline term
#: (GFLOP/s); like the bandwidth peak, only the ratio matters.
DEFAULT_PEAK_GFLOPS = 50.0

#: The roofline ridge point: loops above this arithmetic intensity
#: (flops per useful byte) are compute-bound, below it bandwidth-bound.
MACHINE_BALANCE_FLOPS_PER_BYTE = DEFAULT_PEAK_GFLOPS / DEFAULT_PEAK_GBS


def default_candidates(
    pins: Optional[Pins] = None,
    compiler_ok: Optional[bool] = None,
    operators: Optional[Sequence[str]] = None,
) -> List[TuneCandidate]:
    """The negotiated space, filtered by the caller's explicit pins.

    Kept deliberately small (probes are wall-clock): the vectorized
    backend across layout x {chained, tiled, eager}, plus the native
    chain JIT (untiled) when a C compiler is available.  ``operators`` crosses
    the grid with an app-provided operator axis (e.g. aero's
    ``("assembled", "matfree")``), respecting an operator pin.
    """
    if compiler_ok is None:
        from ..kernelc import compiler_available

        compiler_ok = compiler_available()
    cands = [
        TuneCandidate("vectorized", "aos", True, None),
        TuneCandidate("vectorized", "soa", True, None),
        TuneCandidate("vectorized", "aos", True, "auto"),
        TuneCandidate("vectorized", "aos", False, None),
        TuneCandidate("vectorized", "soa", False, None),
    ]
    if compiler_ok:
        cands += [
            TuneCandidate("native", "aos", True, None),
            TuneCandidate("native", "soa", True, None),
        ]
    if pins is not None:
        if pins.layout is not None:
            cands = [c for c in cands if c.layout == pins.layout]
        if pins.chained is not None:
            cands = [c for c in cands if c.chained == pins.chained]
        if pins.tiling_pinned:
            cands = [c for c in cands if c.tiling == pins.tiling]
            if not cands and pins.tiling is not None:
                # A pinned concrete tile size is not in the default
                # grid: synthesize the matching candidate (vectorized
                # only: native runs a tiled request untiled).
                cands = [
                    TuneCandidate("vectorized",
                                  pins.layout or "aos", True, pins.tiling)
                ]
    if operators:
        ops = list(operators)
        if pins is not None and pins.operator is not None:
            ops = [op for op in ops if op == pins.operator] \
                or [pins.operator]
        cands = [replace(c, operator=op) for c in cands for op in ops]
    return cands


def predict_candidate(
    candidate: TuneCandidate,
    loop_infos: Sequence[Dict],
    calibration=None,
    peak_gbs: float = DEFAULT_PEAK_GBS,
    peak_gflops: float = DEFAULT_PEAK_GFLOPS,
) -> float:
    """Predicted seconds per step for one candidate.

    Memory time comes from the perfmodel calibration: each loop's
    useful bytes divided by the peak bandwidth scaled by that
    architecture class's efficiency for the loop's kernel class
    (``mem_eff_scalar`` / ``mem_eff_vec`` — the
    tables fitted against the paper, or refitted from measured
    profiles by :func:`repro.perfmodel.fit_calibration_from_profile`).
    Each loop is priced as a two-term roofline,
    ``max(bytes / bandwidth, flops / peak_gflops)`` — the flops leg
    (from the IR-derived profile estimates) is what makes a
    compute-bound matrix-free action comparable against a
    bandwidth-bound assembled SpMV.  Dispatch and interpretation
    overheads separate the backends where traffic alone cannot.

    When the candidate carries an operator tag, loops tagged with a
    *different* operator are skipped: an ``operator="matfree"``
    candidate is priced over the matfree loops plus the shared
    (untagged) ones, never over the assembled-only loops it replaces.
    """
    if calibration is None:
        from ..perfmodel import CALIBRATION

        calibration = CALIBRATION["cpu"]
    style = _BACKEND_STYLE.get(candidate.backend, "vec")
    eff_table = {
        "scalar": calibration.mem_eff_scalar,
        "vec": calibration.mem_eff_vec,
    }[style]
    # Native keeps the vectorized efficiency table but sheds the
    # per-loop Python dispatch (one cffi entry per chain).
    over_style = "native" if candidate.backend == "native" else style
    per_elem = _PER_ELEMENT_S[over_style]
    if style == "scalar":
        per_elem *= max(calibration.cycles_per_flop_scalar, 0.05)
    per_loop = _PER_LOOP_S[over_style]
    if candidate.chained:
        per_loop *= 0.55  # fused replay: no per-loop lookups/validation
    if candidate.operator is not None:
        loop_infos = [
            info for info in loop_infos
            if info.get("operator") in (None, candidate.operator)
        ]
    t = 0.0
    nloops = max(len(loop_infos), 1)
    for info in loop_infos:
        eff = max(float(eff_table.get(info.get("kind", "direct"), 0.3)),
                  1e-3)
        mem = float(info.get("bytes", 0.0)) / (peak_gbs * 1e9 * eff)
        if candidate.tiling is not None:
            # Cross-loop tile locality pays off on multi-loop chains,
            # costs schedule overhead on short ones.
            mem *= 0.9 if nloops >= 3 else 1.05
        if candidate.layout == "soa" and style != "scalar":
            mem *= 0.98 if info.get("kind") == "direct" else 1.0
        comp = float(info.get("flops", 0.0)) / (peak_gflops * 1e9)
        t += max(mem, comp) + float(info.get("n", 0)) * per_elem
    t += nloops * per_loop
    return t


def rank_candidates(
    loop_infos: Sequence[Dict],
    candidates: Sequence[TuneCandidate],
    calibration=None,
    peak_gbs: float = DEFAULT_PEAK_GBS,
) -> List[TuneCandidate]:
    """Candidates ordered best-predicted first (ties keep input order)."""
    scored = [
        (predict_candidate(c, loop_infos, calibration, peak_gbs), i, c)
        for i, c in enumerate(candidates)
    ]
    scored.sort(key=lambda t: (t[0], t[1]))
    return [c for _, _, c in scored]
