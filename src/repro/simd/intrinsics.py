"""Branchless vector intrinsics shared by vector kernels.

The paper (Section 4.2) notes that conditionals cannot be expressed inside
vectorized user kernels, so code must be rewritten with ``select()``
instructions; these helpers provide exactly that vocabulary.  Every
function is polymorphic over plain NumPy arrays (the backends' batched
representation) and scalars (so the *same* kernel body can serve as the
scalar form in tests).
"""

from __future__ import annotations

import numpy as np


def select(cond, if_true, if_false):
    """Lane-wise ``cond ? if_true : if_false`` (masked blend).

    The vector replacement for ``if`` statements; corresponds to
    ``_mm256_blendv_pd`` / IMCI masked moves.
    """
    if np.ndim(cond) == 0:
        # Scalar path: keep native Python scalars so the same kernel body
        # runs unchanged per-element.
        return if_true if cond else if_false
    return np.where(cond, if_true, if_false)


def vsqrt(x):
    """Vector square root (``_mm256_sqrt_pd``)."""
    return np.sqrt(x)


def vmin(a, b):
    return np.minimum(a, b)


def vmax(a, b):
    return np.maximum(a, b)


def vabs(x):
    return np.abs(x)


def vfma(a, b, c):
    """Fused multiply-add ``a*b + c``."""
    return a * b + c


def vrecip(x):
    """Reciprocal ``1/x`` (``_mm256_div_pd`` with unit numerator)."""
    return 1.0 / x
