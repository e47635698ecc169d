"""Stable identity of the machine an artifact was built on.

Persisted artifacts that depend on the host (the native compile cache's
``.so`` files) must not be replayed on another machine class, so their
keys carry this fingerprint.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys


def machine_fingerprint() -> str:
    """Short stable id of (hardware class, numerics stack).

    Deliberately coarse: same-generation CI runners share artifacts,
    while an arm64 laptop and an x86 server do not.
    """
    import numpy as np

    payload = repr((
        platform.machine(),
        platform.system(),
        os.cpu_count(),
        np.__version__,
        sys.version_info[:2],
    ))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]
