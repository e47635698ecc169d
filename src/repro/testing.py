"""Shared test/benchmark helpers: the backend matrix and runtime factory.

This lives in the package (rather than in a ``conftest.py``) so that both
``tests/`` and ``benchmarks/`` can import it unambiguously — the two
trees each carry their own ``conftest.py``, and a bare ``from conftest
import ...`` resolves to whichever pytest imported first (the seed's
collection error).  Importing from ``repro.testing`` is order-independent.
"""

from __future__ import annotations

import os

#: (backend name, scheme, options) matrix every equivalence test sweeps.
BACKEND_MATRIX = [
    ("sequential", "two_level", {}),
    ("codegen", "two_level", {}),
    ("openmp", "two_level", {}),
    ("vectorized", "two_level", {}),
    ("vectorized", "full_permute", {}),
    ("vectorized", "block_permute", {}),
    ("simt", "two_level", {"device": "cpu"}),
    ("simt", "two_level", {"device": "phi"}),
    ("vectorized", "full_permute", {"vec": 8}),
    ("vectorized", "block_permute", {"vec": 8}),
    ("native", "two_level", {}),
]


def _apply_backend_override(matrix):
    """``REPRO_BACKEND=<name>`` restricts the matrix to one backend (the
    CI native/fallback jobs force ``native``).  Unknown names get a
    single default-scheme row so the sweep still exercises them."""
    forced = os.environ.get("REPRO_BACKEND")
    if not forced:
        return matrix
    subset = [row for row in matrix if row[0] == forced]
    return subset or [(forced, "two_level", {})]


BACKEND_MATRIX = _apply_backend_override(BACKEND_MATRIX)

#: Dat storage layouts the layout-equivalence tests sweep.
LAYOUT_MATRIX = ["aos", "soa"]


def runtime_for(name: str, scheme: str, options: dict, block_size: int = 64,
                layout: str | None = None):
    """Isolated :class:`~repro.core.Runtime` for one matrix entry."""
    from repro.core import Runtime, make_backend

    if name == "auto":
        # The auto-tuning sentinel is resolved by Runtime itself (there
        # is no "auto" Backend class to construct).
        return Runtime(
            backend="auto", block_size=block_size, scheme=scheme,
            layout=layout,
        )
    return Runtime(
        backend=make_backend(name, **options),
        block_size=block_size,
        scheme=scheme,
        layout=layout,
    )
