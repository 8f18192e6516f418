"""Diffusion-based synthetic pretraining workbench for imbalanced binary classification."""

from .numcore import retain_freed_memory

__version__ = "0.1.0"

# One malloc policy for the whole process, fixed when the package is first
# imported, so every workload and a forked worker's training run under it.
retain_freed_memory()
