"""Exact deciders, spectral bounds, and sufficient-condition verification
for fractional [a, b]-deleted graphs.

The package re-exports each module's ``__all__``. numpy is imported inside the
functions that compute with it, so ``import fracdel`` does not load it."""

from .graph import *
from .oracle import *
from .spectral import *
from .theorems import *

__version__ = "0.1.0"
