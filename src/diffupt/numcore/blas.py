"""One BLAS thread per process.

The worker lanes (``pipeline._lanes``) run a second process on the second
CPU. With OpenBLAS's default of one thread per CPU in each process, the two
processes' threads contend for the same CPUs, and every GEMM at this
pipeline's sizes waits on them. Importing ``diffupt`` calls
``one_blas_thread`` once, so every process, a forked worker too, multiplies
on one thread.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np


def one_blas_thread() -> None:
    """Set numpy's bundled OpenBLAS (in ``numpy.libs``) to one thread; where
    numpy bundles none, it does nothing."""
    for lib in (Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*"):
        set_threads = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_set_num_threads64_", None)
        if set_threads is not None:
            set_threads.argtypes, set_threads.restype = (ctypes.c_int,), None
            set_threads(1)
