"""Keeps this directory on sys.path so tests can import helpers, and pins BLAS to one thread.

The eigensolver's small batched products gain nothing from a BLAS thread
pool, and on a busy host its threads oversubscribe the CPUs. The pin is set
here, before any test imports numpy; a value already in the environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
