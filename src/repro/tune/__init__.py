"""Runtime instrumentation: per-loop and per-chain profiles.

:mod:`~repro.tune.profile` is the always-on profile behind
``Runtime.stats()["profile"]`` (dumpable with ``python -m repro.tune
report``); :mod:`~repro.tune.signature` fingerprints the machine for
the host-dependent artifacts of the persistent store.

``Runtime("auto")`` is a fixed rule applied when the runtime is built
(native backend, SoA layout; see :class:`repro.core.Runtime`), so
nothing here probes or persists a configuration.
"""

from .profile import RuntimeProfile
from .signature import machine_fingerprint

__all__ = [
    "RuntimeProfile",
    "machine_fingerprint",
]
