"""Diffusion-based synthetic pretraining workbench for imbalanced binary classification."""

from .numcore import one_blas_thread, retain_freed_memory

__version__ = "0.1.0"

# One malloc policy and one BLAS thread for the whole process, fixed when the
# package is first imported, so every workload and a forked worker run under them.
retain_freed_memory()
one_blas_thread()
