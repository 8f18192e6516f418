"""Minimal deterministic float64 tensor engine with reverse-mode autodiff.

Values live in numpy arrays. Every differentiable op appends a node to a
per-thread tape; ``backward`` walks the tape in reverse execution order
(always a valid topological order) and accumulates gradients into every
tensor that requires them. The pass takes the tape and releases it node by
node: once a node's gradients are added into its inputs, its closure, the
buffers that closure saved (stride-2 patch matrices, sigmoids) and its
output are freed, unless the caller still holds that output, which then
keeps its ``.grad``. A pass's memory is then about what its forward
retained, falling as it walks back, not that plus every layer's gradient.

A node's inputs stay on the tape until its backward runs, so a backward
closure may recompute from an input's ``.data`` what it would otherwise
save. That relies on one rule: a recorded input's ``.data`` is not changed
before ``backward``. Every op returns a fresh array, and the optimizer
writes parameters only after ``backward``.

Broadcasting is deliberately restricted: elementwise ops accept equal
shapes, a python scalar, or a right operand whose shape equals the left
operand's shape without the leading batch dimension. Anything else needs
an explicit reshape. Conditioning-style per-channel additions go through
the dedicated ``add_channel_bias`` op.

Feature maps are batch-innermost: ``conv2d`` and ``add_channel_bias``
take and return (C, H, W, B) tensors, and channel
concatenation is ``concat(axis=0)``. In NCHW every run that im2col copies
or col2im scatters is only ``wout`` values long (2 to 8 at this pipeline's
feature-map sizes); batch-innermost, each run is at least B long, the
weight-gradient GEMM takes the patch matrix as a transposed view instead of
a transposing copy, and a conv's output is already the next conv's input
layout, so nothing is transposed between layers. A model converts once at
its boundary, with ``permute``, from the NCHW batches its callers pass and
back to what they expect.

Every conv without upsampling, at stride 1 or 2, copies its input into a
zero-padded buffer, builds the patch matrix of that buffer with ``_im2col``
and multiplies it by the flattened kernel in one GEMM. The stride-1 input
gradient is itself a stride-1 convolution of the output gradient with the
flipped, channel-swapped kernel (the transposed-convolution identity), so it
is one patch matrix of the Cout-channel gradient and one GEMM, with no
scatter-add; stride 2 keeps the scatter-add of patch columns.

A decoder's 2x upsampling is folded into the 3x3 conv that follows it
(``conv2d(..., upsample=2)``), the sub-pixel identity (Shi et al. 2016): in
the conv of a nearest-neighbour 2x upsample, output phase (a, b), the
pixels (2i+a, 2j+b), reads only a 2x2 window of the low-res map, so it is a
2x2 conv of that map with the 3x3 kernel's taps summed per phase. That is
16 multiply-adds per low-res pixel and channel pair where the conv of the
upsampled map does 36, and the upsampled map is never built. It multiplies
the unpadded low-res map by all 16 phase-kernel taps (16*Cout product rows)
and sums shifted slices of the product per phase, so it builds no patch
matrix: one would have 16*Cin rows, more than 16*Cout for every upsampling
conv of this pipeline (decoder and UNet up path).

What a conv keeps for its backward pass depends on its kind. A stride-1
conv keeps nothing but its input ``x``: its backward pads ``x.data`` again
and rebuilds the patch matrix with the forward's own copies just before the
weight-gradient GEMM (``_gemm_operand``), so the gradient is bitwise the one
a kept patch matrix gives. A stride-1 3x3 patch matrix is 9 times its
input, and rebuilding it costs no measurable time, since the GEMM reads it
while it is still in cache (the recompute trade of Chen et al. 2016). A
stride-2 conv keeps its patch matrix, 2.25 times its input: rebuilding that
too made a classifier step about 5% and an autoencoder step about 2%
slower. An upsampling conv keeps only a view of ``x``.

A layer is one tape node. Each recorded op costs a finiteness scan, a
``Tensor``, a backward closure and a gradient copy, and at these sizes that
overhead is a large share of a training step. So ``conv2d(..., silu=True)``
applies SiLU to the biased conv output, ``linear`` is a matmul plus bias,
``mean_pool`` is global average pooling of (C, H, W, B) maps to (B, C) rows
and ``bce_with_logits`` is a whole binary cross-entropy loss, each as one
node. Each is bitwise the composition it replaces, in value and in every
gradient: its forward runs the same numpy operations on the same operands,
and its backward performs, in place where it can, the same IEEE operation
on the same two operands at each step (operand order aside, which IEEE
addition and multiplication ignore) and accumulates gradient terms in the
order the unfused backward pass did. The fused conv checks only the
activation for finiteness; a non-finite pre-activation still fails that
check, since silu(+inf) = +inf, silu(-inf) = -inf * 0 = NaN and silu(NaN) =
NaN.
"""

from __future__ import annotations

import functools
import threading

import numpy as np

__all__ = [
    "NCHW_TO_CHWB",
    "CHWB_TO_NCHW",
    "Tensor",
    "ShapeError",
    "NonFiniteError",
    "no_grad",
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
]


# ``permute`` axes between a model's NCHW batches and its (C, H, W, B) feature maps
NCHW_TO_CHWB = (1, 2, 3, 0)
CHWB_TO_NCHW = (3, 0, 1, 2)


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested op."""


class NonFiniteError(FloatingPointError):
    """An op produced NaN or Inf."""


class _Tape(threading.local):
    def __init__(self):
        self.nodes = []
        self.enabled = True


_TAPE = _Tape()


class no_grad:
    """Context manager that suspends tape recording (inference mode)."""

    def __enter__(self):
        self._prev = _TAPE.enabled
        _TAPE.enabled = False
        return self

    def __exit__(self, *exc):
        _TAPE.enabled = self._prev
        return False


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{op} produced non-finite values")


class Tensor:
    """N-dimensional float64 value with an optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return _reshape(self, shape)

    def sum(self, axis: int | None = None) -> "Tensor":
        return _reduce(self, axis, kind="sum")

    def mean(self, axis: int | None = None) -> "Tensor":
        return _reduce(self, axis, kind="mean")

    def __add__(self, other):
        return _elementwise(self, other, kind="add")

    def __radd__(self, other):
        return _elementwise(self, other, kind="add")

    def __sub__(self, other):
        return _elementwise(self, other, kind="sub")

    def __rsub__(self, other):
        return _elementwise(self, other, kind="rsub")

    def __mul__(self, other):
        return _elementwise(self, other, kind="mul")

    def __rmul__(self, other):
        return _elementwise(self, other, kind="mul")

    def __neg__(self):
        return _elementwise(self, -1.0, kind="mul")

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _make(value: np.ndarray, op: str, inputs: tuple, backward_fn) -> Tensor:
    """Wrap an op result, validating finiteness and recording on the tape."""
    _check_finite(value, op)
    out = Tensor(value)
    if _TAPE.enabled and any(
        isinstance(t, Tensor) and t.requires_grad for t in inputs
    ):
        out.requires_grad = True
        _TAPE.nodes.append((out, inputs, backward_fn))
    return out


def backward(loss: Tensor) -> None:
    """Reverse-accumulate gradients of a scalar loss through the tape."""
    if loss.size != 1:
        raise ShapeError(f"backward expects a scalar loss, got shape {loss.shape}")
    nodes = _TAPE.nodes
    _TAPE.nodes = []
    loss.grad = np.ones_like(loss.data)
    while nodes:
        _accumulate(*nodes.pop())


def _accumulate(out: Tensor, inputs: tuple, fn) -> None:
    """Add one tape node's gradients into its inputs. Popped off the tape, the
    node (its output, its closure with the buffers it saved, and the gradients
    it returned) is freed when this returns, unless the caller holds ``out``."""
    if out.grad is None:
        return
    for inp, g in zip(inputs, fn(out.grad)):
        if g is None or not isinstance(inp, Tensor) or not inp.requires_grad:
            continue
        if inp.grad is None:
            # a copy: g may be shared with another input or a read-only broadcast view
            inp.grad = g.copy()
        else:
            inp.grad += g


# ---------------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------------


def _broadcast_mode(a: Tensor, b) -> str:
    """'scalar', 'same', or 'batch' (b matches a minus the leading dim)."""
    if not isinstance(b, Tensor):
        return "scalar"
    if a.shape == b.shape:
        return "same"
    if a.ndim >= 1 and b.shape == a.shape[1:]:
        return "batch"
    raise ShapeError(f"incompatible shapes for elementwise op: {a.shape} vs {b.shape}")


# kind -> (value, gradient wrt a, gradient wrt b), each from (a, b) or (g, a, b)
_ELEMENTWISE = {
    "add": (lambda a, b: a + b, lambda g, a, b: g, lambda g, a, b: g),
    "sub": (lambda a, b: a - b, lambda g, a, b: g, lambda g, a, b: -g),
    "rsub": (lambda a, b: b - a, lambda g, a, b: -g, lambda g, a, b: g),
    "mul": (lambda a, b: a * b, lambda g, a, b: g * b, lambda g, a, b: g * a),
}


def _elementwise(a: Tensor, b, kind: str) -> Tensor:
    mode = _broadcast_mode(a, b)
    forward, grad_a, grad_b = _ELEMENTWISE[kind]
    if mode == "scalar":
        bval = float(b)
        return _make(forward(a.data, bval), kind, (a,), lambda g: (grad_a(g, a.data, bval),))

    def back(g):
        gb = grad_b(g, a.data, b.data)
        return grad_a(g, a.data, b.data), (gb.sum(axis=0) if mode == "batch" else gb)

    return _make(forward(a.data, b.data), kind, (a, b), back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D matrix product (M,K) @ (K,N)."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul expects (M,K)@(K,N), got {a.shape} @ {b.shape}")
    value = a.data @ b.data

    def back(g):
        return g @ b.data.T, a.data.T @ g

    return _make(value, "matmul", (a, b), back)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Dense layer ``x @ w + b`` of (B, K) rows, (K, N) weights and an (N,)
    bias, as one node: the values and gradients of ``matmul`` then ``+``."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"linear expects (B,K)@(K,N), got {x.shape} @ {w.shape}")
    if b is not None and b.shape != (w.shape[1],):
        raise ShapeError(f"linear bias must be ({w.shape[1]},), got {b.shape}")
    value = x.data @ w.data
    if b is not None:
        value += b.data

    def back(g):
        gx = g @ w.data.T if x.requires_grad else None
        gw = x.data.T @ g
        return (gx, gw) if b is None else (gx, gw, g.sum(axis=0))

    return _make(value, "linear", (x, w) if b is None else (x, w, b), back)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)), computed in one buffer."""
    s = np.negative(x, out=np.empty_like(x))
    # exp(-x) overflowing to inf yields exactly 0, which is the right limit
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    s += 1.0
    return np.divide(1.0, s, out=s)


def _silu_grad(g: np.ndarray, x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``g * (s * (1 + x * (1 - s)))``, the gradient of silu at ``x`` (``s`` its
    sigmoid), built in one buffer: each step is the same IEEE operation on the
    same two operands as in that expression, so the result is bitwise equal."""
    t = np.subtract(1.0, s)
    t *= x
    t += 1.0
    t *= s
    t *= g
    return t


def silu(x: Tensor) -> Tensor:
    s = _sigmoid_np(x.data)
    value = x.data * s

    def back(g):
        return (_silu_grad(g, x.data, s),)

    return _make(value, "silu", (x,), back)


def softplus(x: Tensor) -> Tensor:
    """log(1 + exp(x)), computed stably; gradient is sigmoid(x)."""
    value = np.logaddexp(0.0, x.data)

    def back(g):
        return (g * _sigmoid_np(x.data),)

    return _make(value, "softplus", (x,), back)


def bce_with_logits(x: Tensor, y: np.ndarray, weight: np.ndarray | None = None) -> Tensor:
    """Mean over rows of ``weight * (softplus(x) - x * y)``, the binary
    cross-entropy of logits ``x`` against 0/1 labels ``y``, as one node.

    Value and gradient are those of the composition ``softplus``, ``*``,
    ``-``, ``*`` and ``mean``, bitwise: the gradient is accumulated in that
    backward pass's order, ``(-g1) * y`` first and then ``+ g1 * sigmoid(x)``,
    where ``g1`` is the mean's gradient (times ``weight`` when given).
    """
    if x.ndim != 1 or y.shape != x.shape or (weight is not None and weight.shape != x.shape):
        raise ShapeError(f"bce_with_logits expects 1-D logits with labels and weights of their shape, got {x.shape}")
    per_sample = np.logaddexp(0.0, x.data)
    per_sample -= x.data * y
    if weight is not None:
        per_sample *= weight
    scale = 1.0 / x.size

    def back(g):
        g1 = np.full(x.shape, float(g.reshape(-1)[0]) * scale)
        if weight is not None:
            g1 *= weight
        gx = np.negative(g1) * y
        gx += g1 * _sigmoid_np(x.data)
        return (gx,)

    return _make(np.asarray(per_sample.mean()), "bce_with_logits", (x,), back)


# ---------------------------------------------------------------------------
# reductions and shape ops
# ---------------------------------------------------------------------------


def _reduce(x: Tensor, axis: int | None, kind: str) -> Tensor:
    if kind == "sum":
        value, scale = x.data.sum(axis=axis), 1.0
    else:
        value, scale = x.data.mean(axis=axis), 1.0 / (x.size if axis is None else x.shape[axis])

    if axis is None:
        def back(g):
            return (np.full_like(x.data, float(g.reshape(-1)[0]) * scale),)
    else:
        def back(g):
            return (np.broadcast_to(np.expand_dims(g, axis), x.shape) * scale,)

    return _make(np.asarray(value), kind, (x,), back)


def mean_pool(x: Tensor) -> Tensor:
    """(B, C) spatial means of (C, H, W, B) feature maps (global average pooling),
    as one node with the values and gradients of reshape, ``mean(axis=1)``
    and ``permute``."""
    if x.ndim != 4:
        raise ShapeError(f"mean_pool expects (C,H,W,B) feature maps, got {x.shape}")
    C, H, W, B = x.shape
    # what ``mean(axis=1)`` computes, without its Python wrapper
    sums = np.add.reduce(x.data.reshape(C, H * W, B), axis=1)
    value = np.true_divide(sums, H * W, out=sums).T
    scale = 1.0 / (H * W)

    def back(g):
        gx = np.empty((C, H * W, B), dtype=np.float64)
        gx[...] = (g.T * scale)[:, None, :]
        return (gx.reshape(x.shape),)

    return _make(value, "mean_pool", (x,), back)


def _reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    value = x.data.reshape(shape)

    def back(g):
        return (g.reshape(x.shape),)

    return _make(value, "reshape", (x,), back)


def permute(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    """``x`` with its axes reordered (``np.transpose``), as a contiguous copy."""
    axes = tuple(axes)
    value = x.data.transpose(axes)
    inverse = tuple(np.argsort(axes))

    def back(g):
        return (g.transpose(inverse),)

    return _make(value, "permute", (x,), back)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Join along ``axis``; for (C, H, W, B) feature maps, channels are axis 0."""
    value = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def back(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _make(value, "concat", tuple(tensors), back)


def embedding(table: Tensor, idx: np.ndarray) -> Tensor:
    """Row lookup: table (V,D) indexed by integer idx (N,) -> (N,D)."""
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 1 or table.ndim != 2:
        raise ShapeError(f"embedding expects 1-D indices into a 2-D table, got {idx.shape} into {table.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ShapeError(f"embedding index out of range for table of {table.shape[0]} rows")
    value = table.data[idx]

    def back(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx, g)
        return (gt,)

    return _make(value, "embedding", (table,), back)


def add_channel_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add a per-sample, per-channel bias (B,C) onto feature maps (C,...,B)."""
    if x.ndim < 2 or b.shape != (x.shape[-1], x.shape[0]):
        raise ShapeError(f"add_channel_bias expects bias (B,C) for input (C,...,B), got {b.shape} for {x.shape}")
    C, B = x.shape[0], x.shape[-1]
    value = x.data + b.data.T.reshape((C,) + (1,) * (x.ndim - 2) + (B,))
    inner = tuple(range(1, x.ndim - 1))

    def back(g):
        return g, g.sum(axis=inner).T

    return _make(value, "add_channel_bias", (x, b), back)


# ---------------------------------------------------------------------------
# 2-D convolution (im2col in the (C, H, W, B) layout, see the module docstring)
# ---------------------------------------------------------------------------


def _conv_node(out: np.ndarray, inputs: tuple, back, silu: bool) -> Tensor:
    """Record a conv's biased output ``out``, or with ``silu`` its activation:
    then the node's backward turns the activation's gradient into ``out``'s
    (``_silu_grad``) and hands it to the conv's own ``back``."""
    if not silu:
        return _make(out, "conv2d", inputs, back)
    s = _sigmoid_np(out)

    def fused_back(g):
        return back(_silu_grad(g, out, s))

    return _make(out * s, "conv2d+silu", inputs, fused_back)


def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int, hout: int, wout: int) -> np.ndarray:
    """Patch matrix (C*kh*kw, hout*wout*B) of a padded (C, Hp, Wp, B) input.

    Row order matches ``w.reshape(Cout, -1)``; columns run over output
    position, batch innermost. It is filled by one slice copy per kernel tap,
    and every contiguous run of such a copy is B values long.
    """
    C, _, _, B = xp.shape
    cols = np.empty((C, kh, kw, hout, wout, B), dtype=np.float64)
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = xp[:, i : i + stride * hout : stride, j : j + stride * wout : stride]
    return cols.reshape(C * kh * kw, hout * wout * B)


def _col2im(cols: np.ndarray, padded_shape, kh, kw, stride, hout, wout) -> np.ndarray:
    """Adjoint of ``_im2col``: scatter-add patch columns into a (C, Hp, Wp, B) buffer."""
    C, Hp, Wp, B = padded_shape
    xg = np.zeros((C, Hp, Wp, B), dtype=np.float64)
    cols = cols.reshape(C, kh, kw, hout, wout, B)
    for i in range(kh):
        for j in range(kw):
            xg[:, i : i + stride * hout : stride, j : j + stride * wout : stride] += cols[:, i, j]
    return xg


def _gemm_operand(x: np.ndarray, pad: int, kh: int, kw: int, stride: int, hout: int, wout: int) -> np.ndarray:
    """The right operand of a conv's forward GEMM, which its weight gradient
    reuses: the patch matrix of the zero-padded copy of (C, H, W, B) maps ``x``."""
    C, H, W, B = x.shape
    xp = np.zeros((C, H + 2 * pad, W + 2 * pad, B), dtype=np.float64)
    xp[:, pad : pad + H, pad : pad + W] = x
    return _im2col(xp, kh, kw, stride, hout, wout)  # the padded copy is freed on return


def check_conv_args(kh: int, kw: int, stride: int, pad: int, upsample: int) -> None:
    """Raise ``ShapeError`` unless ``stride >= 1``, ``pad >= 0`` and ``upsample``
    is 1, or 2 with a 3x3 kernel, stride 1 and pad 1."""
    if stride < 1 or pad < 0:
        raise ShapeError(f"conv2d needs stride >= 1 and pad >= 0, got stride {stride}, pad {pad}")
    if upsample not in (1, 2):
        raise ShapeError(f"conv2d upsample must be 1 or 2, got {upsample}")
    if upsample == 2 and (kh, kw, stride, pad) != (3, 3, 1, 1):
        raise ShapeError(f"conv2d upsample=2 needs a 3x3 kernel, stride 1 and pad 1, got {kh}x{kw}, stride {stride}, pad {pad}")


def conv2d(
    x: Tensor,
    w: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    pad: int = 0,
    upsample: int = 1,
    silu: bool = False,
) -> Tensor:
    """2-D convolution of (Cin,H,W,B) with kernels (Cout,Cin,KH,KW) to (Cout,hout,wout,B).

    The output is the flattened kernel times the patch matrix of the padded
    input, one GEMM, and the weight gradient is the output gradient times
    that patch matrix's transpose. For its backward pass a stride-1 conv
    keeps only ``x`` and rebuilds the patch matrix from ``x.data``, which
    must not change before ``backward``; a stride-2 conv keeps its patch
    matrix. The input gradient is computed only when ``x`` requires grad,
    which the first conv of a network (fed images, latents or noisy
    latents) never does; at stride 1 it is the convolution of the output
    gradient, padded by ``K-1-pad`` (cropped where that is negative), with
    the flipped kernel whose in and out channels are swapped, and at stride
    2 a scatter-add of patch columns.

    ``upsample=2`` (3x3 kernel, stride 1, pad 1 only) convolves the
    nearest-neighbour 2x upsample of ``x`` to (Cout, 2H, 2W, B) without
    building it: output phase (a, b), the pixels (2i+a, 2j+b), is a 2x2 conv
    of ``x`` itself with the 3x3 kernel folded per phase (taps (w0, w1+w2)
    along an axis for phase 0, (w0+w1, w2) for phase 1), so weights enter
    summed, which rounds differently from the conv of the upsampled map. It
    multiplies ``x`` by all 16 phase-kernel taps in one GEMM, then sums per
    phase its four taps' shifted slices. The backward pass copies each
    output-gradient phase to its four tap offsets once; the phase-kernel
    gradient (unfolded onto the 3x3 kernel) and the input gradient are then
    one GEMM each. Arguments outside these forms raise ``ShapeError``:
    ``stride < 1``, ``pad < 0``, or an ``upsample`` other than 1 or 2.

    ``silu=True`` returns ``silu`` of the biased output from the same one
    node, bitwise equal to ``silu(conv2d(...))`` in value and in every
    gradient; only the activation is checked for finiteness (see the module
    docstring). It works on both paths above.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d expects 4-D input and kernel, got {x.shape} and {w.shape}")
    Cin, H, W, B = x.shape
    Cout, Cin_w, KH, KW = w.shape
    check_conv_args(KH, KW, stride, pad, upsample)
    if Cin != Cin_w:
        raise ShapeError(f"conv2d channel mismatch: input (C,H,W,B) {x.shape} vs kernel {w.shape}")
    if bias is not None and bias.shape != (Cout,):
        raise ShapeError(f"conv2d bias must be ({Cout},), got {bias.shape}")
    hout = (upsample * H + 2 * pad - KH) // stride + 1
    wout = (upsample * W + 2 * pad - KW) // stride + 1
    if hout < 1 or wout < 1:
        raise ShapeError(f"conv2d output would be empty for input {x.shape}, kernel {w.shape}, stride {stride}, pad {pad}")

    if upsample == 2:
        return _upsampled_conv(x, w, bias, silu)

    cols = _gemm_operand(x.data, pad, KH, KW, stride, hout, wout)
    w2 = w.data.reshape(Cout, -1)
    out = (w2 @ cols).reshape(Cout, hout, wout, B)
    if bias is not None:
        out += bias.data[:, None, None, None]
    # a stride-1 backward rebuilds cols from x.data, which its tape node holds anyway
    kept_cols = cols if stride > 1 else None
    del cols

    def back(g):
        # g is (Cout, hout, wout, B) and C-contiguous: backward stores each gradient as its own copy
        cols = _gemm_operand(x.data, pad, KH, KW, stride, hout, wout) if kept_cols is None else kept_cols
        gf = g.reshape(Cout, hout * wout * B)
        gw = (gf @ cols.T).reshape(w.shape)
        del cols  # a rebuilt patch matrix is freed before the input gradient's buffers
        gx = None
        if x.requires_grad and stride == 1:
            # g padded by K-1-pad on each side, or cropped by pad-(K-1) where that is positive
            ch, cw = max(pad - KH + 1, 0), max(pad - KW + 1, 0)
            src = g[:, ch : hout - ch, cw : wout - cw]
            qh, qw = max(KH - 1 - pad, 0), max(KW - 1 - pad, 0)
            gp = np.zeros((Cout, H + KH - 1, W + KW - 1, B), dtype=np.float64)
            gp[:, qh : qh + src.shape[1], qw : qw + src.shape[2]] = src
            flipped = w.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(Cin, -1)
            gx = (flipped @ _im2col(gp, KH, KW, 1, H, W)).reshape(Cin, H, W, B)
        elif x.requires_grad:
            gx = _col2im(w2.T @ gf, (Cin, H + 2 * pad, W + 2 * pad, B), KH, KW, stride, hout, wout)[:, pad : pad + H, pad : pad + W]
        if bias is None:
            return gx, gw
        return gx, gw, g.sum(axis=(1, 2, 3))

    return _conv_node(out, (x, w) if bias is None else (x, w, bias), back, silu)


# Row (a, t) of _FOLD sums the taps of one 3-tap kernel axis that tap t of
# output phase a reads: (w0, w1+w2) for phase 0 and (w0+w1, w2) for phase 1.
# Its Kronecker square folds a flattened 3x3 kernel into the four phases'
# flattened 2x2 kernels, rows (a, t, b, s), and its transpose unfolds their
# gradients back onto the 3x3 kernel.
_FOLD = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
_FOLD_2D = np.kron(_FOLD, _FOLD)
# (phase, tap, offset into the low-res map) along one axis
_AXIS_TAPS = ((0, 0, -1), (0, 1, 0), (1, 0, 0), (1, 1, 1))


def _shift(n: int, d: int) -> tuple[slice, slice]:
    """(dst, src) slices of an n-long axis with dst[k] = src[k + d] wherever both exist."""
    return slice(max(-d, 0), n - max(d, 0)), slice(max(d, 0), n + min(d, 0))


@functools.lru_cache(maxsize=None)
def _phase_taps(H: int, W: int, sign: int) -> tuple:
    """(a, b, t, s, dst, src) for the 16 taps of the four phase kernels on an
    H x W map: (C, H, W, B) index tuples with dst[i, j] = src[i + sign*dh, j + sign*dw]
    where (dh, dw) is the tap's offset into the low-res map."""
    rows = []
    for a, t, dh in _AXIS_TAPS:
        hd, hs = _shift(H, sign * dh)
        for b, s, dw in _AXIS_TAPS:
            wd, ws = _shift(W, sign * dw)
            rows.append((a, b, t, s, (slice(None), hd, wd), (slice(None), hs, ws)))
    return tuple(rows)


def _fold_kernel(w: np.ndarray) -> np.ndarray:
    """The four phase kernels of a (Cout, Cin, 3, 3) kernel, indexed (o, i, a, t, b, s)."""
    Cout, Cin = w.shape[:2]
    return (w.reshape(Cout * Cin, 9) @ _FOLD_2D.T).reshape(Cout, Cin, 2, 2, 2, 2)


def _upsampled_conv(x: Tensor, w: Tensor, bias: Tensor | None, silu: bool) -> Tensor:
    """``conv2d(x, w, bias, pad=1, upsample=2, silu=silu)``, computed per output phase on x."""
    Cin, H, W, B = x.shape
    Cout = w.shape[0]
    x2 = x.data.reshape(Cin, H * W * B)
    # every phase kernel's taps, rows (a, b, t, s, o): the forward GEMM's and the input gradient's
    taps = _fold_kernel(w.data).transpose(2, 4, 3, 5, 0, 1).reshape(16 * Cout, Cin)
    y = (taps @ x2).reshape(2, 2, 2, 2, Cout, H, W, B)
    out = np.zeros((Cout, H, 2, W, 2, B), dtype=np.float64)
    for a, b, t, s, dst, src in _phase_taps(H, W, 1):
        out[:, dst[1], a, dst[2], b] += y[a, b, t, s][src]
    del y
    out = out.reshape(Cout, 2 * H, 2 * W, B)
    if bias is not None:
        out += bias.data[:, None, None, None]

    def back(g):
        # each tap's copy of its phase of g, moved by minus the tap's offset
        g6 = g.reshape(Cout, H, 2, W, 2, B)
        shifted = np.zeros((2, 2, 2, 2, Cout, H, W, B), dtype=np.float64)
        for a, b, t, s, dst, src in _phase_taps(H, W, -1):
            shifted[a, b, t, s][dst] = g6[:, src[1], a, src[2], b]
        shifted = shifted.reshape(16 * Cout, H * W * B)
        gtaps = (shifted @ x2.T).reshape(2, 2, 2, 2, Cout, Cin).transpose(4, 5, 0, 2, 1, 3)
        gw = (gtaps.reshape(Cout * Cin, 16) @ _FOLD_2D).reshape(w.shape)
        gx = (taps.T @ shifted).reshape(Cin, H, W, B) if x.requires_grad else None
        if bias is None:
            return gx, gw
        return gx, gw, g.sum(axis=(1, 2, 3))

    return _conv_node(out, (x, w) if bias is None else (x, w, bias), back, silu)
