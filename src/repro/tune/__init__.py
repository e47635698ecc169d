"""Auto-tuning runtime: profile, negotiate, persist, replay.

The layer between tracing and execution the ROADMAP's auto-tuning item
asks for: lightweight always-on instrumentation
(:mod:`~repro.tune.profile`), a perfmodel-seeded measured negotiator
(:mod:`~repro.tune.tuner` / :mod:`~repro.tune.model`), a persistent
on-disk decision store keyed by machine fingerprint and chain signature
(:mod:`~repro.tune.store` / :mod:`~repro.tune.signature`), and the
``backend="auto"`` wiring into the app drivers (:mod:`~repro.tune.apps`).

Layout, chaining and tiling never change bits on a given backend.  The
backend choice (``vectorized`` or ``native``) can: on airfoil and Volna
the colour-ordered increments of ``vectorized`` differ from the
sequential interpreter's at rounding level.  Aero's results are bitwise
identical on every backend.
"""

from .apps import apply_decision, autotune_sim, sim_signature
from .model import (
    Pins,
    TuneCandidate,
    default_candidates,
    predict_candidate,
    rank_candidates,
)
from .profile import RuntimeProfile
from .signature import chain_signature, machine_fingerprint, mesh_bucket
from .store import (
    SCHEMA_VERSION,
    TuneStore,
    reset_tune_cache,
    tune_cache_dir,
    tune_cache_stats,
    tuning_disabled,
)
from .tuner import TuneDecision, Tuner

__all__ = [
    "Pins",
    "RuntimeProfile",
    "SCHEMA_VERSION",
    "TuneCandidate",
    "TuneDecision",
    "TuneStore",
    "Tuner",
    "apply_decision",
    "autotune_sim",
    "chain_signature",
    "default_candidates",
    "machine_fingerprint",
    "mesh_bucket",
    "predict_candidate",
    "rank_candidates",
    "reset_tune_cache",
    "sim_signature",
    "tune_cache_dir",
    "tune_cache_stats",
    "tuning_disabled",
]
