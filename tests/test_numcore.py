"""Tensor engine tests: op oracles, gradient checks, optimizer, RNG, heap policy."""

import ctypes
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import diffupt
from diffupt.numcore import (
    CHWB_TO_NCHW,
    NCHW_TO_CHWB,
    Conv2d,
    Linear,
    MissingGradError,
    Module,
    NonFiniteError,
    Parameter,
    RngStream,
    ShapeError,
    Tensor,
    adam_step,
    add_channel_bias,
    backward,
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
from diffupt.classifier import ClassifierModel, bce_loss
from diffupt.diffusion import UNetDenoiser, diffusion_loss, linear_schedule
from diffupt.numcore import tensor as tops


def to_chwb(a):
    """An NCHW array in the engine's (C, H, W, B) feature-map layout."""
    return np.ascontiguousarray(a.transpose(NCHW_TO_CHWB))


def to_nchw(a):
    return a.transpose(CHWB_TO_NCHW)


def conv2d_bruteforce(x, w, stride=1):
    """Independent sliding-window oracle of a conv zero-padded by 1 (nested
    loops). Each step is one vector over the batch, so every output value is
    summed in loop order, one product at a time."""
    B, Cin, H, W = x.shape
    Cout, _, KH, KW = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    hout = (H + 2 - KH) // stride + 1
    wout = (W + 2 - KW) // stride + 1
    out = np.zeros((B, Cout, hout, wout))
    for co in range(Cout):
        for i in range(hout):
            for j in range(wout):
                acc = np.zeros(B)
                for ci in range(Cin):
                    for ki in range(KH):
                        for kj in range(KW):
                            acc += xp[:, ci, i * stride + ki, j * stride + kj] * w[co, ci, ki, kj]
                out[:, co, i, j] = acc
    return out


# ---------------------------------------------------------------------------
# forward ops
# ---------------------------------------------------------------------------


def test_matmul_identity():
    rng = RngStream(0)
    a = rng.normal((3, 3))
    out = matmul(Tensor(np.eye(3)), Tensor(a))
    assert np.allclose(out.data, a)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as e:
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
    assert "(2, 3)" in str(e.value) and "(4, 5)" in str(e.value)


def test_conv2d_matches_bruteforce_5x5():
    rng = RngStream(11)
    x = rng.normal((1, 1, 5, 5))
    w = rng.normal((1, 1, 3, 3))
    out = conv2d(Tensor(to_chwb(x)), Tensor(w), Tensor(np.zeros(1)))
    assert np.allclose(to_nchw(out.data), conv2d_bruteforce(x, w), atol=1e-12)


@pytest.mark.parametrize("h", range(1, 9))
@pytest.mark.parametrize("cin", range(1, 4))
def test_conv2d_bruteforce_all_small_shapes(h, cin):
    rng = RngStream(h * 10 + cin)
    for stride in (1, 2):
        x = rng.normal((2, cin, h, h))
        w = rng.normal((3, cin, 3, 3))
        ours = to_nchw(conv2d(Tensor(to_chwb(x)), Tensor(w), Tensor(np.zeros(3)), stride=stride).data)
        ref = conv2d_bruteforce(x, w, stride=stride)
        assert np.array_equal(ours.shape, ref.shape)
        assert np.allclose(ours, ref, atol=1e-12)


def central_difference(loss, t, h=1e-6):
    """Numeric gradient of the scalar ``loss()`` with respect to every entry of ``t``."""
    flat = t.data.reshape(-1)
    num = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        with no_grad():
            hi = loss().item()
        flat[i] = orig - h
        with no_grad():
            lo = loss().item()
        flat[i] = orig
        num[i] = (hi - lo) / (2 * h)
    return num.reshape(t.shape)


def conv2d_einsum_reference(x, w, b, g, stride):
    """NCHW oracle of a conv zero-padded by 1, one einsum per kernel tap (no
    im2col): output and the gradients of sum(output * g) with respect to x, w and b."""
    KH, KW = w.shape[2:]
    H, W = x.shape[2:]
    hout, wout = g.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    out = np.zeros(g.shape)
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    for i in range(KH):
        for j in range(KW):
            tap = (slice(None), slice(None), slice(i, i + stride * hout, stride), slice(j, j + stride * wout, stride))
            out += np.einsum("bchw,oc->bohw", xp[tap], w[:, :, i, j])
            gw[:, :, i, j] = np.einsum("bohw,bchw->oc", g, xp[tap])
            gxp[tap] += np.einsum("bohw,oc->bchw", g, w[:, :, i, j])
    out += b[None, :, None, None]
    return out, gxp[:, :, 1 : H + 1, 1 : W + 1], gw, g.sum(axis=(0, 2, 3))


def _rel_err(a, ref):
    return np.abs(a - ref).max() / np.abs(ref).max()


def test_einsum_reference_matches_bruteforce():
    rng = RngStream(12)
    x, w = rng.normal((3, 2, 7, 6)), rng.normal((4, 2, 3, 3))
    for stride in (1, 2):
        ref = conv2d_bruteforce(x, w, stride=stride)
        out, *_ = conv2d_einsum_reference(x, w, np.zeros(4), np.zeros(ref.shape), stride)
        assert _rel_err(out, ref) < 1e-13


# (input, kernel, stride) of convs the pipeline runs, at its batch sizes
PIPELINE_CONV_SHAPES = [
    ((32, 1, 16, 16), (8, 1, 3, 3), 2),
    ((32, 16, 4, 4), (16, 16, 3, 3), 1),
    ((32, 32, 8, 8), (16, 32, 3, 3), 1),
    ((32, 16, 16, 16), (1, 16, 3, 3), 1),
    ((250, 32, 2, 2), (32, 32, 3, 3), 1),
    ((32, 32, 4, 4), (4, 32, 3, 3), 1),
    ((32, 16, 4, 4), (4, 16, 3, 3), 1),
]


@pytest.mark.parametrize("xshape,wshape,stride", PIPELINE_CONV_SHAPES)
def test_conv2d_forward_backward_match_einsum_at_pipeline_shapes(xshape, wshape, stride):
    rng = RngStream(sum(xshape) + sum(wshape))
    x_nchw = rng.normal(xshape)
    x = Tensor(to_chwb(x_nchw), requires_grad=True)
    w = Tensor(rng.normal(wshape), requires_grad=True)
    b = Tensor(rng.normal((wshape[0],)), requires_grad=True)
    out = conv2d(x, w, b, stride=stride)
    g = rng.normal(to_nchw(out.data).shape)
    backward((out * Tensor(to_chwb(g))).sum())
    ref_out, ref_gx, ref_gw, ref_gb = conv2d_einsum_reference(x_nchw, w.data, b.data, g, stride)
    ours_all = (to_nchw(out.data), to_nchw(x.grad), w.grad, b.grad)
    for ours, ref in zip(ours_all, (ref_out, ref_gx, ref_gw, ref_gb)):
        assert ours.shape == ref.shape
        assert _rel_err(ours, ref) <= 1e-12


# 2->3 channels, and 4->1 at stride 1 (the id names a conv path that is gone):
# every case builds the patch matrix, the last one with few output channels
@pytest.mark.parametrize(
    "stride,cin,cout",
    [pytest.param(1, 2, 3, id="1"), pytest.param(2, 2, 3, id="2"), pytest.param(1, 4, 1, id="1-out_side")],
)
@pytest.mark.parametrize("grow", [0, 1, 3])  # rows and columns added to an 8x6 map: even and odd sizes
@pytest.mark.parametrize("x_grad", [True, False])
def test_conv2d_gradients_match_finite_differences(stride, cin, cout, grow, x_grad):
    # B=5 equals no channel, kernel, input or output extent, so a batch/channel
    # mix-up in the internal layout cannot pass
    rng = RngStream(300 + 4 * stride + 2 * grow + x_grad + 16 * (cin - 2))
    x = Tensor(to_chwb(rng.normal((5, cin, 8 + grow, 6 + grow))), requires_grad=x_grad)
    w = Tensor(rng.normal((cout, cin, 3, 3)), requires_grad=True)
    b = Tensor(rng.normal((cout,)), requires_grad=True)
    out = conv2d(x, w, b, stride=stride)
    r = Tensor(rng.normal(out.shape))

    def loss():
        return (conv2d(x, w, b, stride=stride) * r).sum()

    backward(loss())
    assert (x.grad is not None) == x_grad
    for t in ((x,) if x_grad else ()) + (w, b):
        assert np.allclose(t.grad, central_difference(loss, t), rtol=1e-6, atol=1e-7)


class _CountingArray(np.ndarray):
    """An array that counts the matrix products it is an operand of."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _CountingArray.products += 1
        return getattr(ufunc, method)(*(np.asarray(a) for a in inputs), **kwargs)


def test_conv2d_skips_input_gradient_when_input_needs_none(monkeypatch):
    # during backward the input gradient is a _gemm_operand of the Cout-channel output
    # gradient (stride 1) or a _col2im (stride 2); a stride-1 weight gradient also
    # rebuilds the patch matrix of the Cin-channel input, which is not counted
    calls = []
    for name in ("_gemm_operand", "_col2im"):
        fn = getattr(tops, name)
        monkeypatch.setattr(tops, name, lambda *a, fn=fn, name=name: calls.append((name, a[0].shape[0])) or fn(*a))
    # an upsampling conv's backward multiplies by its folded kernel only for the input gradient
    fold = tops._fold_kernel
    monkeypatch.setattr(tops, "_fold_kernel", lambda w: fold(w).view(_CountingArray))
    rng = RngStream(21)
    for cout, stride, upsample in [(4, 1, 1), (4, 2, 1), (4, 1, 2), (1, 1, 2)]:
        w = Tensor(rng.normal((cout, 2, 3, 3)), requires_grad=True)
        b = Tensor(np.zeros(cout), requires_grad=True)
        for needs_grad in (False, True):
            x = Tensor(to_chwb(rng.normal((3, 2, 5, 5))), requires_grad=needs_grad)
            loss = conv2d(x, w, b, stride=stride, upsample=upsample).sum()
            calls.clear()
            _CountingArray.products = 0
            backward(loss)
            assert w.grad is not None and (x.grad is not None) == needs_grad
            on_output_gradient = [c for name, c in calls if name == "_col2im" or c == cout]
            assert len(on_output_gradient) == (needs_grad and upsample == 1)
            assert _CountingArray.products == (needs_grad and upsample == 2)


@pytest.mark.parametrize(
    "cout, bound",
    [
        pytest.param(16, 144 * 512 * 8, id="patch-side"),  # one 144 x 512 patch matrix
        pytest.param(4, 16 * 6 * 6 * 32 * 8, id="output-side"),  # few output channels: under one padded input
    ],
)
def test_stride1_conv_forward_keeps_no_patch_matrix_in_memory(cout, bound):
    # a stride-1 conv at the UNet's 16-channel 4x4 level, batch 32: its backward rebuilds
    # the patch matrix from x, which the tape holds as the node's input
    rng = RngStream(23)
    x = Tensor(rng.normal((16, 4, 4, 32)), requires_grad=True)
    w = Tensor(rng.normal((cout, 16, 3, 3)), requires_grad=True)
    b = Tensor(np.zeros(cout), requires_grad=True)
    r = rng.normal((cout, 4, 4, 32))
    backward((conv2d(x, w, b) * Tensor(r)).sum())  # warm-up
    x.grad = w.grad = b.grad = None
    tracemalloc.start()
    try:
        out = conv2d(x, w, b)
        retained = tracemalloc.get_traced_memory()[0]  # the output is 64 or 16 KB
    finally:
        tracemalloc.stop()
    assert retained < bound
    backward((out * Tensor(r)).sum())  # the output gradient is r
    reference = (r.reshape(cout, -1) @ tops._gemm_operand(x.data, 1).T).reshape(w.shape)
    assert np.array_equal(w.grad, reference)  # the weight gradient is this product, bitwise


# (input, kernel) of the upsampling convs the pipeline runs, at its batch sizes:
# autoencoder dec2 and out at B=32 and B=64, the UNet up conv at B=32 and B=250
PIPELINE_UPSAMPLING_SHAPES = [
    pytest.param((32, 32, 4, 4), (16, 32, 3, 3), id="dec2-B32"),
    pytest.param((64, 32, 4, 4), (16, 32, 3, 3), id="dec2-B64"),
    pytest.param((32, 16, 8, 8), (1, 16, 3, 3), id="out-B32"),
    pytest.param((64, 16, 8, 8), (1, 16, 3, 3), id="out-B64"),
    pytest.param((32, 32, 2, 2), (16, 32, 3, 3), id="up-B32"),
    pytest.param((250, 32, 2, 2), (16, 32, 3, 3), id="up-B250"),
]


@pytest.mark.parametrize("xshape,wshape", PIPELINE_UPSAMPLING_SHAPES)
def test_upsampling_conv_matches_repeat_then_conv(xshape, wshape):
    rng = RngStream(sum(xshape) + sum(wshape))
    x_chwb = rng.normal(xshape[1:] + xshape[:1])
    w_data, b_data = rng.normal(wshape), rng.normal((wshape[0],))
    up = to_nchw(x_chwb.repeat(2, 1).repeat(2, 2))
    ref_out = conv2d_bruteforce(up, w_data) + b_data[None, :, None, None]
    g = rng.normal(ref_out.shape)
    # gradients: those of the full-resolution conv, the input's summed over each 2x2 block
    _, ref_gup, ref_gw, ref_gb = conv2d_einsum_reference(up, w_data, b_data, g, 1)
    B, C, H, W = xshape
    ref_gx = ref_gup.reshape(B, C, H, 2, W, 2).sum(axis=(3, 5))
    x, w, b = (Tensor(a, requires_grad=True) for a in (x_chwb, w_data, b_data))
    out = conv2d(x, w, b, upsample=2)
    backward((out * Tensor(to_chwb(g))).sum())
    for ours, ref in zip((to_nchw(out.data), to_nchw(x.grad), w.grad, b.grad), (ref_out, ref_gx, ref_gw, ref_gb)):
        assert ours.shape == ref.shape
        assert _rel_err(ours, ref) <= 1e-12


@pytest.mark.parametrize("cin,cout", [pytest.param(2, 3, id="2to3"), pytest.param(4, 1, id="4to1")])
@pytest.mark.parametrize("x_grad", [True, False])
def test_upsampling_conv_gradients_match_finite_differences(cin, cout, x_grad):
    H, W = 3, 2  # a non-square map; B=5 equals no channel count or extent
    rng = RngStream(500 + 8 * cin + x_grad)
    x = Tensor(rng.normal((cin, H, W, 5)), requires_grad=x_grad)
    w = Tensor(rng.normal((cout, cin, 3, 3)), requires_grad=True)
    b = Tensor(rng.normal((cout,)), requires_grad=True)
    r = Tensor(rng.normal((cout, 2 * H, 2 * W, 5)))

    def loss():
        return (conv2d(x, w, b, upsample=2) * r).sum()

    backward(loss())
    assert (x.grad is not None) == x_grad
    for t in ((x,) if x_grad else ()) + (w, b):
        assert np.allclose(t.grad, central_difference(loss, t), rtol=1e-6, atol=1e-7)


@pytest.mark.parametrize(
    "kwargs",
    [
        pytest.param({"stride": 0}, id="stride0"),
        pytest.param({"stride": -1}, id="stride-neg"),
        pytest.param({"upsample": 3}, id="upsample3"),
        pytest.param({"upsample": 0}, id="upsample0"),
        pytest.param({"stride": 2, "upsample": 2}, id="upsample-stride2"),
        pytest.param({"upsample": 2, "k": 5}, id="upsample-5x5"),
        pytest.param({"k": 1}, id="1x1"),
    ],
)
def test_bad_conv_arguments_raise_shape_error(kwargs):
    kwargs = dict(kwargs)
    k = kwargs.pop("k", 3)
    x, w, b = Tensor(np.zeros((2, 6, 6, 3))), Tensor(np.zeros((4, 2, k, k))), Tensor(np.zeros(4))
    with pytest.raises(ShapeError):
        conv2d(x, w, b, **kwargs)
    if k == 3:  # a layer's kernel is always 3x3
        with pytest.raises(ShapeError):
            Conv2d(2, 4, RngStream(0), **kwargs)


def test_elementwise_broadcast_rules():
    a = Tensor(np.ones((4, 3)))
    b = Tensor(np.arange(3.0))
    assert np.allclose((a + b).data, 1.0 + np.arange(3.0))
    with pytest.raises(ShapeError):
        a + Tensor(np.ones((4, 2)))
    with pytest.raises(ShapeError):
        a + Tensor(np.ones((2, 4, 3)))


def test_activations_values():
    x = np.array([-2.0, 0.0, 3.0])
    s = 1.0 / (1.0 + np.exp(-x))
    assert np.allclose(tops._sigmoid_np(x), s)
    assert np.allclose(silu(Tensor(x)).data, x * s)
    assert np.allclose(softplus(Tensor(x)).data, np.log1p(np.exp(x)))


def test_softplus_stable_at_large_logits():
    out = softplus(Tensor([-50.0, 50.0]))
    assert np.all(np.isfinite(out.data))
    assert out.data[1] == pytest.approx(50.0, abs=1e-12)


def test_nonfinite_is_an_error():
    big = Tensor(np.array([1e308]))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
        big * 1e308


def test_concat_and_embedding():
    c = concat([Tensor(np.ones((2, 1))), Tensor(np.zeros((2, 2)))], axis=1)
    assert c.shape == (2, 3)

    table = Tensor(np.arange(6.0).reshape(3, 2))
    out = embedding(table, np.array([2, 0]))
    assert np.allclose(out.data, [[4.0, 5.0], [0.0, 1.0]])
    with pytest.raises(ShapeError):
        embedding(table, np.array([3]))


def _layout_op_case(op, rng):
    """(forward, numpy reference of its value, inputs) of one (C, H, W, B) op with C=3, B=5."""
    x = Tensor(rng.normal((3, 2, 4, 5)), requires_grad=True)
    if op == "add_channel_bias":
        b = Tensor(rng.normal((5, 3)), requires_grad=True)  # (B, C)
        return lambda: add_channel_bias(x, b), x.data + b.data.T[:, None, None, :], (x, b)
    if op == "concat":
        y = Tensor(rng.normal((2, 2, 4, 5)), requires_grad=True)
        return lambda: concat([x, y], axis=0), np.concatenate([x.data, y.data]), (x, y)
    return lambda: permute(x, CHWB_TO_NCHW), x.data.transpose(3, 0, 1, 2), (x,)


@pytest.mark.parametrize("op", ["add_channel_bias", "concat", "permute"])
def test_layout_ops_match_numpy_and_finite_differences(op):
    rng = RngStream(400 + len(op))
    forward, ref, inputs = _layout_op_case(op, rng)
    assert np.array_equal(forward().data, ref)
    r = Tensor(rng.normal(ref.shape))

    def loss():
        return (forward() * r).sum()

    backward(loss())
    for t in inputs:
        assert np.allclose(t.grad, central_difference(loss, t), rtol=1e-6, atol=1e-7)


def test_add_channel_bias_rejects_a_channel_first_bias():
    with pytest.raises(ShapeError):
        add_channel_bias(Tensor(np.zeros((3, 2, 2, 5))), Tensor(np.zeros((3, 5))))


# ---------------------------------------------------------------------------
# fused layer ops: each is bitwise the composition of ops it replaces
# ---------------------------------------------------------------------------


# (Cin, Cout, stride, upsample) of convs on a 6x4 map: the three conv
# paths, and a stride-1 patch-side conv with few output channels (4->1; its id
# names a conv path that is gone)
CONV_PATHS = [
    pytest.param(2, 3, 1, 1, id="patch_side"),
    pytest.param(4, 1, 1, 1, id="output_side"),
    pytest.param(2, 3, 2, 1, id="stride2"),
    pytest.param(2, 3, 1, 2, id="upsample2"),
]


def _fused_conv_case(cin, cout, stride, upsample, b_grad, x_grad, seed):
    """Inputs of one conv on an odd batch (B=5) of non-square (6x4) maps, and an output weighting."""
    rng = RngStream(seed)
    x = Tensor(rng.normal((cin, 6, 4, 5)), requires_grad=x_grad)
    w = Tensor(rng.normal((cout, cin, 3, 3)), requires_grad=True)
    b = Tensor(rng.normal((cout,)), requires_grad=b_grad)
    hout, wout = (12, 8) if upsample == 2 else (6 // stride, 4 // stride)
    r = Tensor(rng.normal((cout, hout, wout, 5)))
    return x, w, b, r


def _values_and_grads(forward, inputs, r):
    """The value of ``forward()`` and the gradient of sum(value * r) with respect to each input."""
    for t in inputs:
        t.grad = None
    out = forward()
    backward((out * r).sum())
    return [out.data] + [t.grad for t in inputs]


@pytest.mark.parametrize("cin,cout,stride,upsample", CONV_PATHS)
@pytest.mark.parametrize("b_grad", [True, False])  # a trained or a fixed bias
@pytest.mark.parametrize("x_grad", [True, False])
def test_fused_conv_silu_is_bitwise_silu_of_conv(cin, cout, stride, upsample, b_grad, x_grad):
    x, w, b, r = _fused_conv_case(cin, cout, stride, upsample, b_grad, x_grad, 700 + 8 * cin + stride + upsample)
    inputs = [t for t in (x, w, b) if t.requires_grad]
    kwargs = {"stride": stride, "upsample": upsample}
    fused = _values_and_grads(lambda: conv2d(x, w, b, silu=True, **kwargs), inputs, r)
    composed = _values_and_grads(lambda: silu(conv2d(x, w, b, **kwargs)), inputs, r)
    assert (x.grad is not None) == x_grad and (b.grad is not None) == b_grad
    for ours, ref in zip(fused, composed):
        assert np.array_equal(ours, ref)


@pytest.mark.parametrize("cin,cout,stride,upsample", CONV_PATHS)
def test_fused_conv_silu_gradients_match_finite_differences(cin, cout, stride, upsample):
    x, w, b, r = _fused_conv_case(cin, cout, stride, upsample, True, True, 800 + 8 * cin + stride + upsample)

    def loss():
        return (conv2d(x, w, b, stride=stride, upsample=upsample, silu=True) * r).sum()

    backward(loss())
    for t in (x, w, b):
        assert np.allclose(t.grad, central_difference(loss, t), rtol=1e-6, atol=1e-7)


@pytest.mark.parametrize("cin,cout,stride,upsample", CONV_PATHS)
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["+inf", "-inf", "nan"])
def test_fused_conv_raises_on_a_non_finite_pre_activation(cin, cout, stride, upsample, bad):
    # silu(+inf) = +inf, silu(-inf) = -inf * 0 = NaN and silu(NaN) = NaN: the one check sees each
    x, w, b, _ = _fused_conv_case(cin, cout, stride, upsample, True, False, 900)
    b.data[0] = bad
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError):
        conv2d(x, w, b, stride=stride, upsample=upsample, silu=True)


def test_silu_gradient_is_bitwise_the_expression():
    rng = RngStream(31)
    x = Tensor(rng.normal((7, 3)) * 4.0, requires_grad=True)
    g = rng.normal((7, 3))
    backward((silu(x) * Tensor(g)).sum())
    s = tops._sigmoid_np(x.data)
    assert np.array_equal(x.grad, g * (s * (1.0 + x.data * (1.0 - s))))


@pytest.mark.parametrize("one_column", [True, False])  # the classifier head's (16, 1) weights, or three columns
@pytest.mark.parametrize("x_grad", [True, False])
def test_linear_is_bitwise_matmul_plus_bias(one_column, x_grad):
    rng = RngStream(40 + 2 * one_column + x_grad)
    n = 1 if one_column else 3
    x = Tensor(rng.normal((5, 4)), requires_grad=x_grad)
    w = Tensor(rng.normal((4, n)), requires_grad=True)
    b = Tensor(rng.normal((n,)), requires_grad=True)
    r = Tensor(rng.normal((5, n)))
    inputs = [t for t in (x, w, b) if t.requires_grad]

    fused = _values_and_grads(lambda: linear(x, w, b), inputs, r)
    composed = _values_and_grads(lambda: matmul(x, w) + b, inputs, r)
    if one_column:  # each row's own sum of products; the gradients stay those of the matmul
        composed[0] = (x.data * w.data[:, 0]).sum(axis=1)[:, None] + b.data
    for ours, ref in zip(fused, composed):
        assert np.array_equal(ours, ref)
    for t in inputs:
        t.grad = None
    backward((linear(x, w, b) * r).sum())
    for t in inputs:
        assert np.allclose(t.grad, central_difference(lambda: (linear(x, w, b) * r).sum(), t), rtol=1e-6, atol=1e-7)


def test_linear_rejects_a_mismatched_bias():
    with pytest.raises(ShapeError):
        linear(Tensor(np.zeros((2, 4))), Tensor(np.zeros((4, 3))), Tensor(np.zeros(4)))


def test_mean_pool_is_bitwise_reshape_mean_permute():
    rng = RngStream(50)
    x = Tensor(rng.normal((3, 6, 4, 5)), requires_grad=True)  # (C, H, W, B), non-square, odd B
    r = Tensor(rng.normal((5, 3)))

    def composed():
        return permute(x.reshape(3, -1, 5).mean(axis=1), (1, 0))

    fused = _values_and_grads(lambda: mean_pool(x), [x], r)
    for ours, ref in zip(fused, _values_and_grads(composed, [x], r)):
        assert np.array_equal(ours, ref)
    x.grad = None
    backward((mean_pool(x) * r).sum())
    assert np.allclose(x.grad, central_difference(lambda: (mean_pool(x) * r).sum(), x), rtol=1e-6, atol=1e-7)


def _softplus_bce(logits, y, weights):
    """``classifier.bce_loss`` as five ops, the unfused oracle of its one node."""
    per_sample = softplus(logits) - logits * Tensor(y)
    if weights is not None:
        per_sample = per_sample * Tensor(np.where(y == 1, weights[1], weights[0]))
    return per_sample.mean()


@pytest.mark.parametrize("weights", [None, (0.6, 3.0)], ids=["unweighted", "weighted"])
def test_bce_loss_is_bitwise_the_softplus_composition(weights):
    rng = RngStream(60)
    logits = Tensor(rng.normal((7,)) * 3.0, requires_grad=True)
    y = (rng.uniform((7,)) < 0.4).astype(np.float64)
    y[:2] = (0.0, 1.0)
    fused = bce_loss(logits, y, weights)
    backward(fused)
    ours, logits.grad = logits.grad, None
    composed = _softplus_bce(logits, y, weights)
    backward(composed)
    assert fused.shape == composed.shape
    assert np.array_equal(fused.data, composed.data)
    assert np.array_equal(ours, logits.grad)
    logits.grad = None
    backward(bce_loss(logits, y, weights))
    assert np.allclose(logits.grad, central_difference(lambda: bce_loss(logits, y, weights), logits), rtol=1e-6, atol=1e-8)


def _tape_nodes(loss_fn):
    """Nodes one loss records on the tape (the tape is then cleared by its backward)."""
    before = len(tops._TAPE.nodes)
    loss = loss_fn()
    recorded = len(tops._TAPE.nodes) - before
    backward(loss)
    return recorded


def test_one_tape_node_per_layer():
    # classifier: 3 convs, the pool, the head, the logits' reshape and the loss (16 unfused)
    rng = RngStream(70)
    model = ClassifierModel((1, 16, 16), rng.split("model"))
    x, y = rng.uniform((6, 1, 16, 16)), np.array([0.0, 1.0, 0.0, 0.0, 1.0, 0.0])
    assert _tape_nodes(lambda: bce_loss(model.logits_t(Tensor(x)), y, (0.6, 3.0))) <= 7
    # depth-1 UNet as in the pipeline (38 unfused)
    unet = UNetDenoiser((4, 4, 4), 16, rng.split("unet"), emb_dim=32)
    batch = rng.normal((6, 4, 4, 4))
    assert _tape_nodes(lambda: diffusion_loss(unet, batch, np.arange(6) % 2, linear_schedule(50), rng)) <= 25


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


def test_backward_linear_case():
    x = Tensor(np.zeros(4), requires_grad=True)
    backward(x.sum())
    assert np.array_equal(x.grad, np.ones(4))


def test_backward_square_case():
    x = Tensor([1.0, 2.0], requires_grad=True)
    backward((x * x).sum())
    assert np.array_equal(x.grad, [2.0, 4.0])


def test_backward_rejects_nonscalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ShapeError):
        backward(x * 2.0)


def test_backward_accumulates_shared_inputs():
    x = Tensor([3.0], requires_grad=True)
    y = x * 2.0 + x * x  # dy/dx = 2 + 2x = 8
    backward(y.sum())
    assert x.grad[0] == pytest.approx(8.0)


def test_first_gradients_are_writable_and_unshared():
    # add hands one g to both operands, and sum(axis) hands back a read-only
    # broadcast view; each tensor's first gradient must be its own copy
    rng = RngStream(23)
    a, b, x = (Tensor(rng.normal((3, 4)), requires_grad=True) for _ in range(3))
    r, r2 = Tensor(rng.normal((4,))), Tensor(rng.normal((3, 4)))

    def terms():
        s = x + x
        return s, (a * a).sum() + ((a + b).sum(axis=0) * r).sum() + (x * x).sum() + (s * r2).sum()

    s, total = terms()
    backward(total)
    assert not np.shares_memory(a.grad, b.grad) and not np.shares_memory(x.grad, s.grad)
    for t in (a, b, x):
        assert t.grad.flags.writeable
        assert np.allclose(t.grad, central_difference(lambda: terms()[1], t), rtol=1e-6, atol=1e-8)


def _backward_peak_above_forward(depth: int) -> int:
    """tracemalloc peak of ``backward`` through ``depth`` equal convs, above
    what their forward pass left allocated (the tape's saved buffers and outputs)."""
    rng = RngStream(31)
    convs = [Conv2d(8, 8, rng.split(f"conv{i}"), silu=True) for i in range(depth)]
    for conv in convs:  # gradient buffers that persist are allocated up front
        conv.w.tensor.grad, conv.b.tensor.grad = np.zeros(conv.w.shape), np.zeros(conv.b.shape)
    x = Tensor(rng.normal((8, 8, 8, 16)))  # (C, H, W, B)

    def loss():
        h = x
        for conv in convs:
            h = conv(h)
        return (h * h).mean()

    tracemalloc.start()
    try:
        total = loss()
        retained = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        backward(total)
        return tracemalloc.get_traced_memory()[1] - retained
    finally:
        tracemalloc.stop()


def test_backward_frees_each_node_as_it_passes():
    # a layer's output, its gradient and its patch matrix are 64, 64 and 576 KB;
    # a tape kept whole until the end keeps every layer's output gradient as well
    shallow, deep = _backward_peak_above_forward(2), _backward_peak_above_forward(8)
    assert deep - shallow < 8 * 8 * 8 * 16 * 8  # one layer's output


def test_no_grad_suspends_tape():
    x = Tensor([1.0], requires_grad=True)
    with no_grad():
        y = x * 3.0
    assert not y.requires_grad
    assert len(tops._TAPE.nodes) == 0


class _TwoLayerNet(Module):
    def __init__(self, rng):
        super().__init__()
        self.c1 = Conv2d(1, 2, rng)
        self.l1 = Linear(2 * 16, 3, rng)

    def __call__(self, x):
        h = silu(self.c1(permute(x, NCHW_TO_CHWB)))
        h = permute(h, CHWB_TO_NCHW).reshape(x.shape[0], 2 * 16)
        return self.l1(h)


def _loss_of(net, x, target):
    out = net(Tensor(x))
    diff = out - Tensor(target)
    return (diff * diff).mean()


def finite_difference_grads(net, x, target, h=1e-5):
    """Central-difference oracle over every parameter entry."""
    grads = []
    for _, p in net.named_parameters():
        flat = p.tensor.data.reshape(-1)
        g = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            with no_grad():
                up = _loss_of(net, x, target).item()
            flat[i] = orig - h
            with no_grad():
                down = _loss_of(net, x, target).item()
            flat[i] = orig
            g[i] = (up - down) / (2 * h)
        grads.append(g)
    return grads


@pytest.mark.parametrize("seed", range(20))
def test_gradients_match_finite_differences(seed):
    rng = RngStream(1000 + seed)
    net = _TwoLayerNet(rng)
    x = rng.normal((2, 1, 4, 4))
    target = rng.normal((2, 3))
    backward(_loss_of(net, x, target))
    analytic = [p.tensor.grad.reshape(-1).copy() for _, p in net.named_parameters()]
    numeric = finite_difference_grads(net, x, target)
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.abs(a) + np.abs(n), 1e-8)
        rel = np.abs(a - n) / denom
        assert rel.max() < 1e-4


def test_mixed_op_gradient_check():
    rng = RngStream(42)
    table = Tensor(rng.normal((3, 4)), requires_grad=True)
    x = Tensor(rng.normal((2, 1, 2, 2)), requires_grad=True)
    k = Tensor(rng.normal((2, 2, 3, 3)), requires_grad=True)
    b = Tensor(rng.normal((2,)), requires_grad=True)
    idx = np.array([0, 2])

    def forward():
        e = embedding(table, idx)
        up = conv2d(x, k, b, upsample=2).reshape(2, 16)
        joined = concat([up, e], axis=1)
        return (joined * joined).mean()

    backward(forward())
    for t in (table, x, k, b):
        assert np.allclose(t.grad, central_difference(forward, t), rtol=1e-5, atol=1e-8)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def test_adam_zero_grad_fixed_point():
    p = Parameter(np.array([1.0, -2.0]))
    before = p.data.copy()
    p.tensor.grad = np.zeros(2)
    adam_step([p], lr=0.1)
    assert np.array_equal(p.data, before)
    assert p.step_count == 1


def test_adam_first_step_is_signed_lr():
    p = Parameter(np.array([1.0, 1.0]))
    p.tensor.grad = np.array([0.5, -0.25])
    adam_step([p], lr=0.01, eps=1e-12)
    assert np.allclose(p.data, [1.0 - 0.01, 1.0 + 0.01], atol=1e-8)
    assert p.tensor.grad is None


def test_adam_missing_grad_errors():
    p = Parameter(np.array([1.0]))
    with pytest.raises(MissingGradError):
        adam_step([p], lr=0.1)


def test_adam_descends_on_quadratic():
    p = Parameter(np.array([1.0]))
    prev = 1.0
    for _ in range(5):
        x = p.tensor
        backward((x * x).sum())
        adam_step([p], lr=0.1)
        cur = abs(float(p.data[0]))
        assert cur < prev
        prev = cur


def test_step_count_increments_by_one():
    p = Parameter(np.array([1.0]))
    for k in range(1, 4):
        p.tensor.grad = np.ones(1)
        adam_step([p], lr=0.01)
        assert p.step_count == k


# ---------------------------------------------------------------------------
# rng and determinism
# ---------------------------------------------------------------------------


def test_rng_state_is_bitwise_reproducible():
    a = RngStream(5, counter=3).normal((8,))
    b = RngStream(5, counter=3).normal((8,))
    assert np.array_equal(a, b)


def test_rng_counter_advances_and_changes_draws():
    s = RngStream(5)
    a = s.normal((4,))
    b = s.normal((4,))
    assert s.counter == 2
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("block", [1, 3, 7, 10, 11])
def test_rng_draw_in_blocks_equals_the_whole_draw(block):
    s = RngStream(5, counter=2)
    blocks = s.normal_blocks(10, (2, 3), block, 0.5, 2.0)
    assert s.counter == 3  # one draw, taken when the blocks are asked for
    after = s.normal((4,))
    whole = RngStream(5, counter=2)
    assert np.array_equal(np.concatenate(list(blocks)), whole.normal((10, 2, 3), 0.5, 2.0))
    assert np.array_equal(after, whole.normal((4,)))


def test_rng_split_streams_are_independent_and_stable():
    s = RngStream(99)
    c1 = s.split("model").normal((4,))
    c2 = s.split("data").normal((4,))
    c1_again = RngStream(99).split("model").normal((4,))
    assert np.array_equal(c1, c1_again)
    assert not np.array_equal(c1, c2)


def test_training_determinism_same_seed_same_weights():
    def run():
        rng = RngStream(77)
        net = _TwoLayerNet(rng)
        for _ in range(5):
            x = rng.normal((2, 1, 4, 4))
            t = rng.normal((2, 3))
            backward(_loss_of(net, x, t))
            adam_step(net.parameters(), lr=1e-3)
        return net.weight_bytes()

    assert run() == run()


# ---------------------------------------------------------------------------
# heap
# ---------------------------------------------------------------------------

_STEP_FAULTS = """
import resource, sys
import numpy as np

if sys.argv[1] == "retain":
    import diffupt  # noqa: F401  (importing the package fixes the process's malloc policy)


def step():  # ten 720 KB temporaries, freed together at its end, as in a training step
    buffers = [np.ones(90_000) for _ in range(10)]


step()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    step()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not (sys.platform.startswith("linux") and _has_mallopt()), reason="glibc malloc only")
def test_retained_memory_is_reused_without_page_faults():
    def faults(mode):
        # a fresh process, so only this step has moved glibc's thresholds; without
        # glibc's MALLOC_* variables and tunables, which would fix them before it starts
        env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
        env["PYTHONPATH"] = str(Path(diffupt.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", _STEP_FAULTS, mode], env=env, capture_output=True, text=True, check=True, timeout=60)
        return int(out.stdout)

    assert faults("default") > 1000  # glibc hands each step's buffers back and faults them in again
    assert faults("retain") < 100
