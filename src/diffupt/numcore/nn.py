"""Tiny layer library on top of the tensor engine."""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .optim import Parameter
from .rng import RngStream
from .tensor import Tensor


class Module:
    """Base class tracking parameters, buffers, and submodules by attribute."""

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "_parameter_buffer", None)

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._params[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        self._buffers[name] = np.asarray(value, dtype=np.float64)
        object.__setattr__(self, name, self._buffers[name])

    def pack_parameters(self) -> None:
        """Move every parameter's value and Adam moments into one (3, n) buffer,
        in ``named_parameters`` order, so that ``adam_step`` updates them as one
        run and ``parameter_buffer`` holds them all. Run it once the module
        has all its parameters; every model runs it at the end of ``__init__``."""
        params = self.parameters()
        buffer = np.zeros((3, sum(p.tensor.size for p in params)), dtype=np.float64)
        start = 0
        for p in params:
            p.move_to(buffer, start)
            start += p.tensor.size
        object.__setattr__(self, "_parameter_buffer", buffer)

    @property
    def parameter_buffer(self) -> np.ndarray:
        """The (3, n) buffer of ``pack_parameters``: row 0 every parameter's
        value, rows 1 and 2 its first and second Adam moment."""
        if self._parameter_buffer is None:
            raise RuntimeError(f"{type(self).__name__} has not packed its parameters")
        return self._parameter_buffer

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Parameter]]:
        out = [(prefix + name, p) for name, p in self._params.items()]
        for name, mod in self._modules.items():
            out.extend(mod.named_parameters(prefix + name + "."))
        return out

    def named_buffers(self, prefix: str = "") -> list[tuple[str, np.ndarray]]:
        out = [(prefix + name, b) for name, b in self._buffers.items()]
        for name, mod in self._modules.items():
            out.extend(mod.named_buffers(prefix + name + "."))
        return out

    def weight_bytes(self) -> bytes:
        """Canonical byte image of all parameters, then all buffers (for bitwise comparisons)."""
        arrays = [p.data for p in self.parameters()] + [b for _, b in self.named_buffers()]
        return b"".join(arr.astype("<f8").tobytes() for arr in arrays)


class ModuleList(Module):
    def __init__(self, mods=()):
        super().__init__()
        self._items = []
        for m in mods:
            self.append(m)

    def append(self, mod: Module) -> None:
        name = str(len(self._items))
        self._modules[name] = mod
        self._items.append(mod)

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def __getitem__(self, i):
        return self._items[i]


class Linear(Module):
    """Dense layer x @ w + b with He-scaled init, one ``T.linear`` node a call."""

    def __init__(self, in_dim: int, out_dim: int, rng: RngStream, bias: bool = True):
        super().__init__()
        self.w = Parameter(np.zeros((in_dim, out_dim)))
        self.b = Parameter(np.zeros(out_dim)) if bias else None
        self.reset(rng)

    def reset(self, rng: RngStream) -> None:
        """He-scaled weights drawn from ``rng``, zero bias, fresh optimizer state."""
        self.w.reset(rng.normal(self.w.shape, sd=math.sqrt(2.0 / self.w.shape[0])))
        if self.b is not None:
            self.b.reset(0.0)

    def __call__(self, x: Tensor) -> Tensor:
        return T.linear(x, self.w.tensor, None if self.b is None else self.b.tensor)


class Conv2d(Module):
    """k x k convolution layer on (C, H, W, B) feature maps, with stride, pad,
    upsample and silu fixed at construction (``T.conv2d`` documents them).
    ``upsample=2`` makes it a 3x3, pad-1 conv of the nearest-2x upsample of
    its input, computed on the input itself; ``silu=True`` applies SiLU to
    its biased output within the same tape node. Arguments ``conv2d`` would
    reject raise ``ShapeError`` here already."""

    def __init__(
        self,
        cin: int,
        cout: int,
        k: int,
        rng: RngStream,
        stride: int = 1,
        pad: int = 0,
        bias: bool = True,
        upsample: int = 1,
        silu: bool = False,
    ):
        super().__init__()
        T.check_conv_args(k, k, stride, pad, upsample)
        std = math.sqrt(2.0 / (cin * k * k))
        self.w = Parameter(rng.normal((cout, cin, k, k), sd=std))
        self.b = Parameter(np.zeros(cout)) if bias else None
        self.stride = stride
        self.pad = pad
        self.upsample = upsample
        self.silu = silu

    def __call__(self, x: Tensor) -> Tensor:
        bias = None if self.b is None else self.b.tensor
        return T.conv2d(x, self.w.tensor, bias, stride=self.stride, pad=self.pad, upsample=self.upsample, silu=self.silu)


class Embedding(Module):
    def __init__(self, n: int, dim: int, rng: RngStream):
        super().__init__()
        self.table = Parameter(rng.normal((n, dim), sd=1.0 / math.sqrt(dim)))

    def __call__(self, idx: np.ndarray) -> Tensor:
        return T.embedding(self.table.tensor, idx)
