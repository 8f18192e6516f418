"""Keep the memory a training or sampling step frees for the next step.

Each step of the engine allocates and frees the same multi-MB patch
matrices and GEMM products. glibc's malloc starts both its mmap and its trim
threshold at 128 KB and raises them (the trim threshold to twice the mmap
threshold) only to the largest block freed so far, so how a step's buffers
behave depends on what the process ran before: after an autoencoder whose
largest block is about 2 MB, each UNet training step hands its ~6 MB back to
the OS when it frees it and page-faults it back in on the next step (about
1,400 faults a step, 40% of the step's time at this pipeline's sizes).
Importing ``diffupt`` calls ``retain_freed_memory`` once, so the policy is
the process's and does not depend on which stage ran first.
"""

from __future__ import annotations

import ctypes

# glibc's mallopt parameter numbers
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# where glibc's own rule ends once it has freed a block of its 32 MB maximum.
# Network passes run in row blocks (``nn.in_row_blocks``), so no pass's buffers
# grow with its rows: a whole 128-row denoiser pass peaks at 6.7 MB and a
# batch-32 UNet training step at 6.8 MB (tracemalloc). The threshold keeps all
# of those on the heap, and the arrays that grow with the data too
# (2,400 16x16 images are 4.9 MB).
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD


def retain_freed_memory() -> None:
    """Fix glibc's thresholds for the rest of the process: blocks below
    ``MMAP_THRESHOLD`` come from the heap, and up to ``TRIM_THRESHOLD`` of
    free heap stays mapped. Without glibc's ``mallopt`` it does nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)
