"""Shared test/benchmark helpers: the backend matrix and runtime factory.

This lives in the package (rather than in a ``conftest.py``) so that both
``tests/`` and ``benchmarks/`` can import it unambiguously — the two
trees each carry their own ``conftest.py``, and a bare ``from conftest
import ...`` resolves to whichever pytest imported first (the seed's
collection error).  Importing from ``repro.testing`` is order-independent.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

def _row(name: str, scheme: str, **options):
    """One matrix row, with an id derived from its contents
    (``vectorized-full_permute-vec3``) rather than its position, so
    adding or deleting a row renames no other row's tests."""
    label = "-".join([name, scheme, *(f"{k}{v}" for k, v in options.items())])
    return pytest.param(name, scheme, options, id=label)


#: (backend name, scheme, options) matrix every equivalence test sweeps:
#: each ``vectorized`` scheme at the default strip width (one strip per
#: small phase), at ``vec=8`` (many full strips) and, for the two
#: permute schemes, at ``vec=3`` (a ragged last strip in every phase);
#: ``auto`` is the ``Runtime("auto")`` rule.
BACKEND_MATRIX = [
    _row("sequential", "two_level"),
    _row("vectorized", "two_level"),
    _row("vectorized", "full_permute"),
    _row("vectorized", "block_permute"),
    _row("vectorized", "full_permute", vec=8),
    _row("vectorized", "block_permute", vec=8),
    _row("native", "two_level"),
    _row("vectorized", "two_level", vec=8),
    _row("vectorized", "full_permute", vec=3),
    _row("vectorized", "block_permute", vec=3),
    _row("auto", "two_level"),
]


def _apply_backend_override(matrix):
    """``REPRO_BACKEND=<name>`` restricts the matrix to one backend (the
    CI native/fallback jobs force ``native``); ``auto`` is one row of
    the ``Runtime("auto")`` rule.  Any other name raises here, at
    import, rather than inside every test that builds a runtime."""
    forced = os.environ.get("REPRO_BACKEND")
    if not forced:
        return matrix
    if forced == "auto":
        return [_row("auto", "two_level")]
    from repro.core.runtime import BACKENDS

    if forced not in BACKENDS:
        raise ValueError(
            f"REPRO_BACKEND={forced!r} is not a backend; use one of "
            f"{[*BACKENDS, 'auto']}"
        )
    return [row for row in matrix if row.values[0] == forced]


BACKEND_MATRIX = _apply_backend_override(BACKEND_MATRIX)

#: Dat storage layouts the layout-equivalence tests sweep.
LAYOUT_MATRIX = ["aos", "soa"]


def runtime_for(name: str, scheme: str, options: dict, block_size: int = 64,
                layout: str | None = None):
    """Isolated :class:`~repro.core.Runtime` for one matrix entry."""
    from repro.core import Runtime, make_backend

    if name == "auto":
        # Runtime resolves the "auto" rule itself (native + SoA unless
        # a layout is passed); there is no "auto" Backend class.
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


def assert_matches_sequential(got, ref, scheme: str, **tolerance) -> None:
    """The numerical contract against the sequential interpreter's
    ``ref``: under ``two_level`` every backend (``vectorized`` at any
    ``vec``, ``native`` with or without a compiler, ``auto``) equals it
    bitwise; the permute schemes reorder indirect increments and agree
    to ``tolerance`` (``np.testing.assert_allclose`` keywords)."""
    if scheme == "two_level":
        np.testing.assert_array_equal(got, ref)
    else:
        np.testing.assert_allclose(got, ref, **tolerance)


def spy_chains(runtime) -> list:
    """The bound chains ``runtime``'s flushes run from now on, each
    once, least recently flushed first (the chain cache's order).

    Flushes over the same live arguments get one view back while it is
    held (``Runtime.compiled_chain_for``), and this list holds them.
    """
    seen = []
    lookup = runtime.compiled_chain_for

    def recorded(specs, tiling=None):
        compiled = lookup(specs, tiling)
        seen[:] = [c for c in seen if c is not compiled] + [compiled]
        return compiled

    runtime.compiled_chain_for = recorded
    return seen
