"""Deterministic float64 tensor engine: autodiff, layers, Adam, RNG, heap and BLAS policy."""

from .tensor import (
    CHWB_TO_NCHW,
    NCHW_TO_CHWB,
    NonFiniteError,
    ShapeError,
    Tensor,
    add_channel_bias,
    backward,
    bce_with_logits,
    concat,
    conv2d,
    embedding,
    linear,
    matmul,
    mean_pool,
    no_grad,
    permute,
    silu,
    softplus,
)
from .blas import one_blas_thread
from .heap import retain_freed_memory
from .rng import RngStream
from .optim import MissingGradError, Parameter, adam_step
from .nn import Conv2d, Embedding, Linear, Module, ModuleList, in_row_blocks, row_blocks

__all__ = [
    "NCHW_TO_CHWB",
    "CHWB_TO_NCHW",
    "Tensor",
    "ShapeError",
    "NonFiniteError",
    "no_grad",
    "in_row_blocks",
    "row_blocks",
    "backward",
    "matmul",
    "linear",
    "conv2d",
    "silu",
    "softplus",
    "bce_with_logits",
    "mean_pool",
    "concat",
    "permute",
    "embedding",
    "add_channel_bias",
    "retain_freed_memory",
    "one_blas_thread",
    "RngStream",
    "Parameter",
    "MissingGradError",
    "adam_step",
    "Module",
    "ModuleList",
    "Linear",
    "Conv2d",
    "Embedding",
]
