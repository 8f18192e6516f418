"""Minimal deterministic float64 tensor engine with reverse-mode autodiff.

Values live in numpy arrays. Every differentiable op appends a node to a
per-thread tape; ``backward`` walks the tape in reverse execution order
(always a valid topological order) and accumulates gradients into every
tensor that requires them. The tape is cleared after each backward pass.

Broadcasting is deliberately restricted: elementwise ops accept equal
shapes, a python scalar, or a right operand whose shape equals the left
operand's shape without the leading batch dimension. Anything else needs
an explicit reshape. Conditioning-style per-channel additions go through
the dedicated ``add_channel_bias`` op.

``conv2d`` takes and returns NCHW tensors but works internally in a
batch-innermost (C, H, W, B) layout. In NCHW every run that im2col copies
or col2im scatters is only ``wout`` values long (2 to 8 at this pipeline's
feature-map sizes); batch-innermost, each run is at least B long, and the
weight-gradient GEMM takes the patch matrix as a transposed view instead of
a transposing copy. The input is transposed once into the padded buffer,
and the output and its gradient once on the way out and back in.

Each conv also expands its narrower side, chosen from shapes alone. The
patch matrix has Cin*K*K rows per output position; a conv with few output
channels (an autoencoder's last decoder layer, a denoiser's head) would
build it only to reduce it to one or a few channels. A stride-1 conv with
``Cout*Hp*Wp < Cin*hout*wout`` therefore multiplies the padded input by all
K*K kernel taps at once and sums K*K shifted slices of the product (the
"kn2row" ordering), and never builds a patch matrix. The stride-1 input
gradient is itself a stride-1 convolution of the output gradient with the
flipped, channel-swapped kernel (the transposed-convolution identity), so it
is one patch matrix of the Cout-channel gradient and one GEMM, with no
scatter-add; stride 2 keeps the scatter-add of patch columns.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "NonFiniteError",
    "no_grad",
    "backward",
    "matmul",
    "conv2d",
    "relu",
    "silu",
    "sigmoid",
    "softplus",
    "concat",
    "embedding",
    "upsample2x",
    "add_channel_bias",
]


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
    if not np.all(np.isfinite(arr)):
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

    def numpy(self) -> np.ndarray:
        return self.data

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
    for out, inputs, fn in reversed(nodes):
        if out.grad is None:
            continue
        grads = fn(out.grad)
        for inp, g in zip(inputs, grads):
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


def _elementwise(a: Tensor, b, kind: str) -> Tensor:
    mode = _broadcast_mode(a, b)
    bval = b.data if isinstance(b, Tensor) else float(b)
    if kind == "add":
        value = a.data + bval
    elif kind == "sub":
        value = a.data - bval
    elif kind == "rsub":
        value = bval - a.data
    elif kind == "mul":
        value = a.data * bval
    else:  # pragma: no cover
        raise ValueError(kind)

    def back(g):
        if kind == "add":
            ga, gb = g, g
        elif kind == "sub":
            ga, gb = g, -g
        elif kind == "rsub":
            ga, gb = -g, g
        else:  # mul
            ga = g * bval
            gb = g * a.data if mode != "scalar" else None
        if mode == "batch" and gb is not None:
            gb = gb.sum(axis=0)
        return (ga, gb) if mode != "scalar" else (ga, None)

    inputs = (a, b) if mode != "scalar" else (a,)
    return _make(value, kind, inputs, back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D matrix product (M,K) @ (K,N)."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul expects (M,K)@(K,N), got {a.shape} @ {b.shape}")
    value = a.data @ b.data

    def back(g):
        return g @ b.data.T, a.data.T @ g

    return _make(value, "matmul", (a, b), back)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    # exp(-x) overflowing to inf yields exactly 0, which is the right limit
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def relu(x: Tensor) -> Tensor:
    value = np.maximum(x.data, 0.0)

    def back(g):
        return (g * (x.data > 0.0),)

    return _make(value, "relu", (x,), back)


def silu(x: Tensor) -> Tensor:
    s = _sigmoid_np(x.data)
    value = x.data * s

    def back(g):
        return (g * (s * (1.0 + x.data * (1.0 - s))),)

    return _make(value, "silu", (x,), back)


def sigmoid(x: Tensor) -> Tensor:
    s = _sigmoid_np(x.data)

    def back(g):
        return (g * s * (1.0 - s),)

    return _make(s, "sigmoid", (x,), back)


def softplus(x: Tensor) -> Tensor:
    """log(1 + exp(x)), computed stably; gradient is sigmoid(x)."""
    value = np.logaddexp(0.0, x.data)

    def back(g):
        return (g * _sigmoid_np(x.data),)

    return _make(value, "softplus", (x,), back)


# ---------------------------------------------------------------------------
# reductions and shape ops
# ---------------------------------------------------------------------------


def _reduce(x: Tensor, axis: int | None, kind: str) -> Tensor:
    if axis is None:
        value = x.data.sum() if kind == "sum" else x.data.mean()
        count = x.size
    else:
        value = x.data.sum(axis=axis) if kind == "sum" else x.data.mean(axis=axis)
        count = x.shape[axis]
    scale = 1.0 if kind == "sum" else 1.0 / count

    def back(g):
        if axis is None:
            return (np.full_like(x.data, float(g.reshape(-1)[0]) * scale),)
        return (np.broadcast_to(np.expand_dims(g, axis), x.shape) * scale,)

    return _make(np.asarray(value), kind, (x,), back)


def _reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    value = x.data.reshape(shape)

    def back(g):
        return (g.reshape(x.shape),)

    return _make(value, "reshape", (x,), back)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
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
    """Add a per-sample, per-channel bias (B,C) onto feature maps (B,C,...)."""
    if x.ndim < 2 or b.shape != x.shape[:2]:
        raise ShapeError(f"add_channel_bias expects bias (B,C) for input (B,C,...), got {b.shape} for {x.shape}")
    extra = (1,) * (x.ndim - 2)
    value = x.data + b.data.reshape(b.shape + extra)
    trailing = tuple(range(2, x.ndim))

    def back(g):
        gb = g.sum(axis=trailing) if trailing else g
        return g, gb

    return _make(value, "add_channel_bias", (x, b), back)


def upsample2x(x: Tensor) -> Tensor:
    """Nearest-neighbour 2x spatial upsampling of (B,C,H,W)."""
    if x.ndim != 4:
        raise ShapeError(f"upsample2x expects (B,C,H,W), got {x.shape}")
    value = x.data.repeat(2, axis=2).repeat(2, axis=3)

    def back(g):
        return (g[:, :, 0::2, 0::2] + g[:, :, 0::2, 1::2] + g[:, :, 1::2, 0::2] + g[:, :, 1::2, 1::2],)

    return _make(value, "upsample2x", (x,), back)


# ---------------------------------------------------------------------------
# 2-D convolution (im2col in the (C, H, W, B) layout, see the module docstring)
# ---------------------------------------------------------------------------


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


def conv2d(x: Tensor, w: Tensor, bias: Tensor | None = None, stride: int = 1, pad: int = 0) -> Tensor:
    """2-D convolution of (B,Cin,H,W) with kernels (Cout,Cin,KH,KW).

    Inputs and output are NCHW; the work is done in the (C, H, W, B) layout
    described in the module docstring, on whichever side of the conv is
    narrower. A stride-1 conv whose output side is smaller than its patch
    matrix (``Cout*Hp*Wp < Cin*hout*wout``, Hp and Wp the padded input
    extents) multiplies the padded input by every kernel tap first and adds
    the KH*KW shifted (Cout, hout, wout, B) slices of that product; its
    weight gradient multiplies KH*KW shifted copies of the output gradient
    by the padded input. Every other conv builds the patch matrix. The input
    gradient is computed only when ``x`` requires grad, which the first conv
    of a network (fed images, latents or noisy latents) never does; at
    stride 1 it is the convolution of the output gradient, padded by
    ``K-1-pad`` (cropped where that is negative), with the flipped kernel
    whose in and out channels are swapped, and at stride 2 a scatter-add of
    patch columns.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d expects 4-D input and kernel, got {x.shape} and {w.shape}")
    B, Cin, H, W = x.shape
    Cout, Cin_w, KH, KW = w.shape
    if Cin != Cin_w:
        raise ShapeError(f"conv2d channel mismatch: input {x.shape} vs kernel {w.shape}")
    if bias is not None and bias.shape != (Cout,):
        raise ShapeError(f"conv2d bias must be ({Cout},), got {bias.shape}")
    hout = (H + 2 * pad - KH) // stride + 1
    wout = (W + 2 * pad - KW) // stride + 1
    if hout < 1 or wout < 1:
        raise ShapeError(f"conv2d output would be empty for input {x.shape}, kernel {w.shape}, stride {stride}, pad {pad}")

    Hp, Wp = H + 2 * pad, W + 2 * pad
    output_side = stride == 1 and Cout * Hp * Wp < Cin * hout * wout
    xp = np.zeros((Cin, Hp, Wp, B), dtype=np.float64)
    xp[:, pad : pad + H, pad : pad + W] = x.data.transpose(1, 2, 3, 0)
    w2 = w.data.reshape(Cout, -1)
    # rhs is the right operand of the forward GEMM; the weight gradient reuses it
    if output_side:
        rhs = xp.reshape(Cin, Hp * Wp * B)
        taps = w.data.transpose(2, 3, 0, 1).reshape(KH * KW * Cout, Cin)
        y = (taps @ rhs).reshape(KH, KW, Cout, Hp, Wp, B)
        out = np.zeros((Cout, hout, wout, B), dtype=np.float64)
        for i in range(KH):
            for j in range(KW):
                out += y[i, j, :, i : i + hout, j : j + wout]
        del y
    else:
        rhs = _im2col(xp, KH, KW, stride, hout, wout)
        del xp  # free the padded copy before the GEMM allocates its output
        out = (w2 @ rhs).reshape(Cout, hout, wout, B)
    if bias is not None:
        out += bias.data[:, None, None, None]
    value = out.transpose(3, 0, 1, 2)

    def back(g):
        g4 = g.transpose(1, 2, 3, 0)  # (Cout, hout, wout, B) view
        if output_side:
            shifted = np.zeros((KH, KW, Cout, Hp, Wp, B), dtype=np.float64)
            for i in range(KH):
                for j in range(KW):
                    shifted[i, j, :, i : i + hout, j : j + wout] = g4
            gw = shifted.reshape(KH * KW * Cout, -1) @ rhs.T
            gw = gw.reshape(KH, KW, Cout, Cin).transpose(2, 3, 0, 1)
        else:
            gf = np.ascontiguousarray(g4).reshape(Cout, hout * wout * B)
            gw = (gf @ rhs.T).reshape(w.shape)
        gx = None
        if x.requires_grad and stride == 1:
            # g padded by K-1-pad on each side, or cropped by pad-(K-1) where that is positive
            ch, cw = max(pad - KH + 1, 0), max(pad - KW + 1, 0)
            src = g4[:, ch : hout - ch, cw : wout - cw]
            qh, qw = max(KH - 1 - pad, 0), max(KW - 1 - pad, 0)
            gp = np.zeros((Cout, H + KH - 1, W + KW - 1, B), dtype=np.float64)
            gp[:, qh : qh + src.shape[1], qw : qw + src.shape[2]] = src
            flipped = w.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(Cin, -1)
            gx = (flipped @ _im2col(gp, KH, KW, 1, H, W)).reshape(Cin, H, W, B).transpose(3, 0, 1, 2)
        elif x.requires_grad:
            gx = _col2im(w2.T @ gf, (Cin, Hp, Wp, B), KH, KW, stride, hout, wout)
            gx = gx[:, pad : pad + H, pad : pad + W].transpose(3, 0, 1, 2)
        if bias is None:
            return gx, gw
        return gx, gw, g.sum(axis=(0, 2, 3))

    inputs = (x, w, bias) if bias is not None else (x, w)
    return _make(value, "conv2d", inputs, back)
