"""Airfoil: the non-linear 2-D inviscid CFD benchmark (paper Section 6)."""

from .constants import DEFAULT_CONSTANTS, AirfoilConstants
from .driver import AirfoilSim
from .kernels import make_kernels
from .reference import reference_sweep

__all__ = [
    "AirfoilConstants",
    "AirfoilSim",
    "DEFAULT_CONSTANTS",
    "make_kernels",
    "reference_sweep",
]
