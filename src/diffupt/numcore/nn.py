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

    def reset_optimizer_state(self) -> None:
        """Zero every parameter's Adam moments and step count; the values stay."""
        self.parameter_buffer[1:] = 0.0
        for p in self.parameters():
            p.step_count = 0

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


# rows a block of ``in_row_blocks`` comes in multiples of, and the fewest its last block may have
BLOCK_ROW_STEP = 8


def row_blocks(n: int, block_rows: int) -> list[tuple[int, int]]:
    """The (start, stop) rows of ``in_row_blocks``' passes over n rows: a cut
    at every multiple of ``block_rows`` (itself a multiple of
    ``BLOCK_ROW_STEP``), except that a last block under ``BLOCK_ROW_STEP``
    rows joins the block before it. No rows make one empty block."""
    if block_rows < 1 or block_rows % BLOCK_ROW_STEP:
        raise ValueError(f"block_rows must be a positive multiple of {BLOCK_ROW_STEP}, got {block_rows}")
    cuts = [*range(0, n, block_rows), n] if n else [0, 0]
    if len(cuts) > 2 and n - cuts[-2] < BLOCK_ROW_STEP:
        del cuts[-2]
    return list(zip(cuts, cuts[1:]))


def in_row_blocks(net, block_rows: int, x: np.ndarray, *per_row: np.ndarray) -> np.ndarray:
    """``net(Tensor(x), *per_row).data`` without gradients, computed over the
    ``row_blocks`` of ``x`` and concatenated along the rows. A pass's buffers
    (each conv's patch matrix or upsampling tap product, each activation) grow
    with its rows, so blocking bounds a pass's memory by its block, whatever
    the row count.

    An odd-sized block runs with a copy of its last row (and of that row's
    per-row inputs) appended, and that copy's output is dropped. Rows are
    independent in every network here: convs, pooling and dense layers sum
    over channels, taps and pixels, never over rows. What can change with
    the row count is the order of a row's sums. OpenBLAS's x86-64 dgemm
    computes product columns 8 at a time; for some column counts it
    computes the last 1-4 columns with a narrower kernel that rounds
    differently. A conv's GEMM has a column per position and row, rows
    innermost, and the UNet's 2x2 level has 4 positions, so an odd-row pass
    would put its last rows through the narrower kernel. With every pass
    even, no GEMM here has such a tail (the classifier and the autoencoder
    have 16 positions or more), and no pass has the one row that numpy
    multiplies with its vector routine and pools pairwise. So a row's output
    does not depend on how many rows share its pass: each block's outputs
    are bitwise those rows of one even pass over all rows.

    Each model sets its block from its per-row bytes, the tracemalloc peak
    of one pass at the pipeline's sizes divided by its rows, so that no
    block peaks much above the 3.4 MB of the classifier's: the classifier's
    ``predict_proba`` and ``extract_features`` (27 KB a row) take 128 rows,
    3.4 MB a block; the latent UNet's ``DenoiserModel.predict`` (52 KB)
    takes 64, 3.4 MB; the autoencoder's ``encode`` (50 KB) and ``decode``
    (47 KB) take 64, 3.2 and 3.0 MB. A 250-row denoiser pass took 4-6%
    longer in 128-row blocks than in one pass, and 8-19% longer in 64-row
    blocks (medians of 30 alternating repeats, two runs, one BLAS thread,
    2-vCPU x86-64); sampling spends that to peak at half the 128-row
    block's 6.7 MB. No rows make one empty pass, so the output keeps its
    shape.
    """
    def one_pass(a: int, b: int) -> np.ndarray:
        if (b - a) % 2 == 0:
            return net(Tensor(x[a:b]), *(r[a:b] for r in per_row)).data
        rows = [*range(a, b), b - 1]
        return net(Tensor(x[rows]), *(r[rows] for r in per_row)).data[:-1]

    with T.no_grad():
        return np.concatenate([one_pass(a, b) for a, b in row_blocks(len(x), block_rows)])


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
    """Dense layer x @ w + b, always with a bias (zero at init) and He-scaled
    weights, one ``T.linear`` node a call."""

    def __init__(self, in_dim: int, out_dim: int, rng: RngStream):
        super().__init__()
        self.w = Parameter(np.zeros((in_dim, out_dim)))
        self.b = Parameter(np.zeros(out_dim))
        self.reset(rng)

    def reset(self, rng: RngStream) -> None:
        """He-scaled weights drawn from ``rng``, zero bias, fresh optimizer state."""
        self.w.reset(rng.normal(self.w.shape, sd=math.sqrt(2.0 / self.w.shape[0])))
        self.b.reset(0.0)

    def __call__(self, x: Tensor) -> Tensor:
        return T.linear(x, self.w.tensor, self.b.tensor)


class Conv2d(Module):
    """3x3 convolution layer with zero padding 1 and a bias on (C, H, W, B)
    feature maps, with stride, upsample and silu fixed at construction
    (``T.conv2d`` documents them). ``upsample=2`` makes it the conv of the
    nearest-2x upsample of its input, computed on the input itself;
    ``silu=True`` applies SiLU to its biased output within the same tape
    node. Arguments ``conv2d`` would reject raise ``ShapeError`` here
    already."""

    def __init__(self, cin: int, cout: int, rng: RngStream, stride: int = 1, upsample: int = 1, silu: bool = False):
        super().__init__()
        T.check_conv_args(stride, upsample)
        self.w = Parameter(rng.normal((cout, cin, 3, 3), sd=math.sqrt(2.0 / (cin * 9))))
        self.b = Parameter(np.zeros(cout))
        self.stride = stride
        self.upsample = upsample
        self.silu = silu

    def __call__(self, x: Tensor) -> Tensor:
        return T.conv2d(x, self.w.tensor, self.b.tensor, stride=self.stride, upsample=self.upsample, silu=self.silu)


class Embedding(Module):
    def __init__(self, n: int, dim: int, rng: RngStream):
        super().__init__()
        self.table = Parameter(rng.normal((n, dim), sd=1.0 / math.sqrt(dim)))

    def __call__(self, idx: np.ndarray) -> Tensor:
        return T.embedding(self.table.tensor, idx)
