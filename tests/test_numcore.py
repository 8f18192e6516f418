"""Tensor engine tests: op oracles, gradient checks, optimizer, RNG, weights."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffupt.numcore import (
    Conv2d,
    Linear,
    MissingGradError,
    Module,
    NonFiniteError,
    Parameter,
    RngStream,
    SerializationError,
    ShapeError,
    Tensor,
    adam_step,
    backward,
    concat,
    conv2d,
    embedding,
    load_state,
    matmul,
    no_grad,
    relu,
    save_state,
    sigmoid,
    silu,
    softplus,
    upsample2x,
)
from diffupt.numcore import tensor as tops


def conv2d_bruteforce(x, w, stride=1, pad=0):
    """Independent sliding-window convolution oracle (nested loops)."""
    B, Cin, H, W = x.shape
    Cout, _, KH, KW = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    hout = (H + 2 * pad - KH) // stride + 1
    wout = (W + 2 * pad - KW) // stride + 1
    out = np.zeros((B, Cout, hout, wout))
    for b in range(B):
        for co in range(Cout):
            for i in range(hout):
                for j in range(wout):
                    acc = 0.0
                    for ci in range(Cin):
                        for ki in range(KH):
                            for kj in range(KW):
                                acc += xp[b, ci, i * stride + ki, j * stride + kj] * w[co, ci, ki, kj]
                    out[b, co, i, j] = acc
    return out


# ---------------------------------------------------------------------------
# forward ops
# ---------------------------------------------------------------------------


def test_relu_definition():
    out = relu(Tensor([-1.0, 0.0, 2.0]))
    assert np.array_equal(out.data, [0.0, 0.0, 2.0])


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
    out = conv2d(Tensor(x), Tensor(w))
    assert np.allclose(out.data, conv2d_bruteforce(x, w), atol=1e-12)


@pytest.mark.parametrize("h", range(1, 9))
@pytest.mark.parametrize("k", range(1, 4))
def test_conv2d_bruteforce_all_small_shapes(h, k):
    if k > h:
        pytest.skip("kernel larger than input")
    rng = RngStream(h * 10 + k)
    for stride in (1, 2):
        for pad in (0, 1):
            if (h + 2 * pad - k) < 0:
                continue
            x = rng.normal((2, 2, h, h))
            w = rng.normal((3, 2, k, k))
            ours = conv2d(Tensor(x), Tensor(w), stride=stride, pad=pad).data
            ref = conv2d_bruteforce(x, w, stride=stride, pad=pad)
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


def conv2d_einsum_reference(x, w, b, g, stride, pad):
    """NCHW oracle, one einsum per kernel tap (no im2col): output and the
    gradients of sum(output * g) with respect to x, w and b."""
    KH, KW = w.shape[2:]
    H, W = x.shape[2:]
    hout, wout = g.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
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
    return out, gxp[:, :, pad : pad + H, pad : pad + W], gw, g.sum(axis=(0, 2, 3))


def _rel_err(a, ref):
    return np.abs(a - ref).max() / np.abs(ref).max()


def test_einsum_reference_matches_bruteforce():
    rng = RngStream(12)
    x, w = rng.normal((3, 2, 7, 6)), rng.normal((4, 2, 3, 3))
    for stride in (1, 2):
        for pad in (0, 1):
            ref = conv2d_bruteforce(x, w, stride=stride, pad=pad)
            out, *_ = conv2d_einsum_reference(x, w, np.zeros(4), np.zeros(ref.shape), stride, pad)
            assert _rel_err(out, ref) < 1e-13


# (input, kernel, stride) of convs the pipeline runs, at its batch sizes; all use pad 1
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
    x = Tensor(rng.normal(xshape), requires_grad=True)
    w = Tensor(rng.normal(wshape), requires_grad=True)
    b = Tensor(rng.normal((wshape[0],)), requires_grad=True)
    out = conv2d(x, w, b, stride=stride, pad=1)
    g = rng.normal(out.shape)
    backward((out * Tensor(g)).sum())
    ref_out, ref_gx, ref_gw, ref_gb = conv2d_einsum_reference(x.data, w.data, b.data, g, stride, 1)
    for ours, ref in ((out.data, ref_out), (x.grad, ref_gx), (w.grad, ref_gw), (b.grad, ref_gb)):
        assert ours.shape == ref.shape
        assert _rel_err(ours, ref) <= 1e-12


# 2->3 channels builds the patch matrix; 4->1 at stride 1 takes the output side
@pytest.mark.parametrize(
    "stride,cin,cout",
    [pytest.param(1, 2, 3, id="1"), pytest.param(2, 2, 3, id="2"), pytest.param(1, 4, 1, id="1-out_side")],
)
@pytest.mark.parametrize("pad", [0, 1, 3])  # pad 3 >= K crops the output gradient
@pytest.mark.parametrize("with_bias", [True, False])
def test_conv2d_gradients_match_finite_differences(stride, cin, cout, pad, with_bias):
    # B=5 equals no channel, kernel, input or output extent, so a batch/channel
    # mix-up in the internal layout cannot pass
    rng = RngStream(300 + 4 * stride + 2 * pad + with_bias + 16 * (cin - 2))
    x = Tensor(rng.normal((5, cin, 8, 6)), requires_grad=True)
    w = Tensor(rng.normal((cout, cin, 3, 3)), requires_grad=True)
    b = Tensor(rng.normal((cout,)), requires_grad=True) if with_bias else None
    out = conv2d(x, w, b, stride=stride, pad=pad)
    r = Tensor(rng.normal(out.shape))

    def loss():
        return (conv2d(x, w, b, stride=stride, pad=pad) * r).sum()

    backward(loss())
    for t in (x, w) + ((b,) if with_bias else ()):
        assert np.allclose(t.grad, central_difference(loss, t), rtol=1e-6, atol=1e-7)


def test_conv2d_skips_input_gradient_when_input_needs_none(monkeypatch):
    # during backward, _im2col (stride 1) or _col2im (stride 2) runs only for the input gradient
    calls = []
    for name in ("_im2col", "_col2im"):
        fn = getattr(tops, name)
        monkeypatch.setattr(tops, name, lambda *a, fn=fn: calls.append(a) or fn(*a))
    rng = RngStream(21)
    w = Tensor(rng.normal((4, 2, 3, 3)), requires_grad=True)
    for stride in (1, 2):
        for needs_grad in (False, True):
            x = Tensor(rng.normal((3, 2, 5, 5)), requires_grad=needs_grad)
            loss = conv2d(x, w, stride=stride, pad=1).sum()
            calls.clear()
            backward(loss)
            assert w.grad is not None and (x.grad is not None) == needs_grad
            assert len(calls) == needs_grad


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
    assert np.allclose(sigmoid(Tensor(x)).data, s)
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


def test_upsample2x_and_concat_and_embedding():
    x = np.arange(4.0).reshape(1, 1, 2, 2)
    up = upsample2x(Tensor(x))
    assert up.shape == (1, 1, 4, 4)
    assert np.allclose(up.data[0, 0, :2, :2], x[0, 0, 0, 0])

    c = concat([Tensor(np.ones((2, 1))), Tensor(np.zeros((2, 2)))], axis=1)
    assert c.shape == (2, 3)

    table = Tensor(np.arange(6.0).reshape(3, 2))
    out = embedding(table, np.array([2, 0]))
    assert np.allclose(out.data, [[4.0, 5.0], [0.0, 1.0]])
    with pytest.raises(ShapeError):
        embedding(table, np.array([3]))


def test_upsample2x_backward_matches_block_sum():
    rng = RngStream(22)
    x = Tensor(rng.normal((32, 32, 8, 8)), requires_grad=True)
    g = rng.normal((32, 32, 16, 16))
    backward((upsample2x(x) * Tensor(g)).sum())
    ref = g.reshape(32, 32, 8, 2, 8, 2).sum(axis=(3, 5))
    assert _rel_err(x.grad, ref) <= 1e-15


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


def test_no_grad_suspends_tape():
    x = Tensor([1.0], requires_grad=True)
    with no_grad():
        y = x * 3.0
    assert not y.requires_grad
    assert len(tops._TAPE.nodes) == 0


class _TwoLayerNet(Module):
    def __init__(self, rng):
        super().__init__()
        self.c1 = Conv2d(1, 2, 3, rng, stride=1, pad=1)
        self.l1 = Linear(2 * 16, 3, rng)

    def __call__(self, x):
        h = silu(self.c1(x))
        h = h.reshape(x.shape[0], 2 * 16)
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
    idx = np.array([0, 2])

    def forward():
        e = embedding(table, idx)
        up = upsample2x(x).reshape(2, 16)
        joined = concat([up, e], axis=1)
        return (joined * joined).mean()

    backward(forward())
    for t in (table, x):
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
# serialization
# ---------------------------------------------------------------------------


def test_weight_file_roundtrip(tmp_path):
    rng = RngStream(3)
    net = _TwoLayerNet(rng)
    path = tmp_path / "weights.bin"
    net.save(path)
    other = _TwoLayerNet(RngStream(4))
    assert other.weight_bytes() != net.weight_bytes()
    other.load(path)
    assert other.weight_bytes() == net.weight_bytes()


def test_weight_file_rejects_bad_magic(tmp_path):
    p = tmp_path / "junk.bin"
    p.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(SerializationError):
        load_state(p)


def test_save_state_plain_arrays(tmp_path):
    path = tmp_path / "arrs.bin"
    save_state(path, [("a", np.arange(6.0).reshape(2, 3)), ("scalar", np.array(5.0))])
    state = load_state(path)
    assert np.array_equal(state["a"], np.arange(6.0).reshape(2, 3))
    assert state["scalar"] == 5.0


_VALID_STATE = [("conv.w", np.arange(24.0).reshape(2, 3, 2, 2)), ("scalar", np.array(5.0)), ("b", np.ones(3))]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_load_state_rejects_truncated_file(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("trunc") / "w.bin"
    save_state(path, _VALID_STATE)
    buf = path.read_bytes()
    cut = data.draw(st.integers(0, len(buf) - 1), label="cut")
    path.write_bytes(buf[:cut])
    with pytest.raises(SerializationError):
        load_state(path)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_load_state_corrupt_byte_raises_only_serialization_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("corrupt") / "w.bin"
    save_state(path, _VALID_STATE)
    buf = bytearray(path.read_bytes())
    pos = data.draw(st.integers(0, len(buf) - 1), label="pos")
    buf[pos] = data.draw(st.integers(0, 255).filter(lambda v: v != buf[pos]), label="byte")
    path.write_bytes(bytes(buf))
    try:
        load_state(path)  # a flipped float64 payload byte still parses
    except SerializationError:
        pass
