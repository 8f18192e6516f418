"""Diffusion tests: schedule oracles, forward/reverse steps, guidance, training."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffupt.diffusion import (
    DenoiserModel,
    DiffusionTrainConfig,
    DivergenceError,
    GuidanceSpec,
    SampleMethod,
    UNetDenoiser,
    cfg_epsilon,
    ddim_step,
    ddim_timesteps,
    diffusion_loss,
    linear_schedule,
    q_sample,
    sample_raw,
    train_diffusion,
)
from diffupt.numcore import Embedding, Linear, NonFiniteError, RngStream, ShapeError, Tensor, backward, silu


class MlpDenoiser(DenoiserModel):
    """Fully connected denoiser for flat vectors (toy problems)."""

    def __init__(self, dim: int, hidden: int, emb_dim: int, rng: RngStream):
        super().__init__()
        self.data_shape = (dim,)
        self.emb_dim = emb_dim
        self.time_proj = Linear(emb_dim, emb_dim, rng.split("time"))
        self.class_embed = Embedding(3, emb_dim, rng.split("class"))
        self.fc_in = Linear(dim, hidden, rng.split("in"))
        self.cond_proj = Linear(emb_dim, hidden, rng.split("cond"))
        self.fc_mid = Linear(hidden, hidden, rng.split("mid"))
        self.fc_out = Linear(hidden, dim, rng.split("out"))
        self.pack_parameters()

    def __call__(self, x: Tensor, t, y) -> Tensor:
        cond = self.cond_proj(self._cond(t, y))
        h = silu(self.fc_in(x) + cond)
        h = silu(self.fc_mid(h))
        return self.fc_out(h)


def smoothed(losses: np.ndarray, alpha: float = 0.05) -> np.ndarray:
    """Exponential moving average of a loss curve, started at its first value."""
    out = np.empty_like(losses)
    acc = losses[0]
    for i, v in enumerate(losses):
        acc = (1 - alpha) * acc + alpha * v
        out[i] = acc
    return out


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------


def test_schedule_two_step_explicit():
    s = linear_schedule(2, 0.1, 0.2)
    assert np.allclose(s.beta, [0.1, 0.2])
    assert np.allclose(s.alpha_bar, [0.9, 0.72])


def test_schedule_default_tail_is_tiny():
    s = linear_schedule(1000)
    assert s.alpha_bar[-1] < 5e-5


@pytest.mark.parametrize("T", [2, 10, 100, 1000])
def test_schedule_product_oracle_exact(T):
    s = linear_schedule(T)
    prod = 1.0
    for t in range(1, T + 1):
        prod *= 1.0 - s.beta[t - 1]
        assert s.alpha_bar[t - 1] == pytest.approx(prod, rel=0, abs=0)  # exact


def test_schedule_monotone_and_posterior_sigma():
    s = linear_schedule(500)
    assert np.all(np.diff(s.beta) > 0)
    assert np.all(np.diff(s.alpha_bar) < 0)
    assert s.alpha_bar[-1] < s.alpha_bar[0] < 1.0


def test_schedule_rejects_bad_bounds():
    with pytest.raises(ValueError):
        linear_schedule(1)
    with pytest.raises(ValueError):
        linear_schedule(10, 0.2, 0.1)
    with pytest.raises(ValueError):
        linear_schedule(10, 0.0, 0.5)


# ---------------------------------------------------------------------------
# q_sample
# ---------------------------------------------------------------------------


def test_q_sample_zero_noise():
    s = linear_schedule(100)
    x0 = np.full((2, 3), 0.5)
    z = q_sample(x0, 40, np.zeros_like(x0), s)
    assert np.allclose(z, np.sqrt(s.alpha_bar[39]) * x0)


def test_q_sample_zero_signal():
    s = linear_schedule(100)
    eps = np.ones((2, 3))
    z = q_sample(np.zeros((2, 3)), 70, eps, s)
    assert np.allclose(z, np.sqrt(1 - s.alpha_bar[69]) * eps)


def test_q_sample_out_of_range_t():
    s = linear_schedule(10)
    with pytest.raises(ValueError):
        q_sample(np.zeros(3), 11, np.zeros(3), s)
    with pytest.raises(ValueError):
        q_sample(np.zeros(3), 0, np.zeros(3), s)


def test_q_sample_variance_preservation():
    s = linear_schedule(1000)
    rng = RngStream(1)
    n = 10_000
    for t in (1, 250, 500, 1000):
        x0 = rng.normal((n,))
        eps = rng.normal((n,))
        z = q_sample(x0, t, eps, s)
        assert z.var() == pytest.approx(1.0, rel=0.05)


# ---------------------------------------------------------------------------
# guidance
# ---------------------------------------------------------------------------


def test_cfg_w_zero_identity():
    rng = RngStream(2)
    a, b = rng.normal((4,)), rng.normal((4,))
    assert np.array_equal(cfg_epsilon(a, b, 0.0), a)


def test_cfg_equal_inputs_any_w():
    a = np.array([1.0, -2.0])
    for w in (0.0, 1.0, 3.0, 10.0):
        assert np.allclose(cfg_epsilon(a, a, w), a)


def test_cfg_direct_evaluation():
    assert cfg_epsilon(np.array([1.0]), np.array([0.0]), 3.0)[0] == pytest.approx(4.0)


def test_cfg_shape_mismatch():
    with pytest.raises(ShapeError):
        cfg_epsilon(np.zeros(3), np.zeros(4), 1.0)


@given(w=st.floats(min_value=0.0, max_value=10.0), seed=st.integers(0, 100))
@settings(max_examples=30)
def test_cfg_is_affine(w, seed):
    rng = RngStream(seed)
    a, b, c, d = (rng.normal((5,)) for _ in range(4))
    lhs = cfg_epsilon(a, b, w) + cfg_epsilon(c, d, w)
    rhs = cfg_epsilon(a + c, b + d, w)
    assert np.allclose(lhs, rhs, atol=1e-9)


def test_guidance_spec_validation():
    assert GuidanceSpec().w == 3.0
    with pytest.raises(ValueError):
        GuidanceSpec(-0.5)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


class _EchoNoise:
    """Mock denoiser returning exactly the realized forward noise."""

    def __init__(self, sched):
        self.sched = sched
        self.calls = 0

    def __call__(self, z_t, t, y):
        # invert q_sample for x0 = 0: z_t = sqrt(1-abar) eps
        ab = self.sched.alpha_bar[np.asarray(t) - 1].reshape((-1,) + (1,) * (z_t.ndim - 1))
        self.calls += 1
        return Tensor(z_t.data / np.sqrt(1 - ab))


class _Zero:
    def __call__(self, z_t, t, y):
        return Tensor(np.zeros_like(z_t.data))


def test_loss_zero_for_perfect_model():
    s = linear_schedule(50)
    rng = RngStream(3)
    x0 = np.zeros((8, 2))  # x0=0 so the echo model can reconstruct eps exactly
    y = np.zeros(8, dtype=np.int64)
    loss = diffusion_loss(_EchoNoise(s), x0, y, s, rng, p_uncond=0.0)
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_loss_of_zero_model_is_unit():
    s = linear_schedule(50)
    rng = RngStream(4)
    vals = []
    for _ in range(40):
        x0 = np.zeros((25, 4))
        loss = diffusion_loss(_Zero(), x0, np.zeros(25, dtype=np.int64), s, rng)
        vals.append(loss.item())
    assert np.mean(vals) == pytest.approx(1.0, rel=0.05)


def test_loss_null_drop_spares_class_rows():
    s = linear_schedule(20)
    rng = RngStream(5)
    model = MlpDenoiser(3, 16, 8, RngStream(6))
    x0 = rng.normal((12, 3))
    y = rng.integers((12,), 0, 2)
    loss = diffusion_loss(model, x0, y, s, rng, p_uncond=1.0)
    backward(loss)
    grad = model.class_embed.table.tensor.grad
    assert grad is not None
    assert np.all(grad[0] == 0.0) and np.all(grad[1] == 0.0)
    assert np.any(grad[2] != 0.0)


def test_loss_rejects_empty_batch():
    s = linear_schedule(10)
    with pytest.raises(ValueError):
        diffusion_loss(_Zero(), np.zeros((0, 2)), np.zeros(0), s, RngStream(0))


# ---------------------------------------------------------------------------
# reverse steps
# ---------------------------------------------------------------------------


def test_ddim_eta0_deterministic():
    s = linear_schedule(50)
    x = np.array([0.5, -0.5])
    eps = np.array([0.1, 0.2])
    assert np.array_equal(ddim_step(x, 30, 20, eps, s), ddim_step(x, 30, 20, eps, s))


@pytest.mark.parametrize("t_prev", [0, 1, 20, 59])
def test_ddim_inversion_identity(t_prev):
    s = linear_schedule(100)
    rng = RngStream(11)
    x0 = rng.normal((4,))
    eps = rng.normal((4,))
    t = 60
    z_t = q_sample(x0, t, eps, s)
    # with the true noise, a step lands on the forward process at t_prev (at 0, on x0 itself)
    expect = x0 if t_prev == 0 else q_sample(x0, t_prev, eps, s)
    assert np.allclose(ddim_step(z_t, t, t_prev, eps, s), expect, rtol=0, atol=1e-12)


def test_ddim_requires_earlier_t_prev():
    s = linear_schedule(10)
    with pytest.raises(ValueError):
        ddim_step(np.zeros(2), 5, 5, np.zeros(2), s)


def test_ddim_timesteps_accounting():
    ts = ddim_timesteps(1000, 50)
    assert len(ts) == 50
    assert ts[0] == 1000 and ts[-1] == 1
    assert np.all(np.diff(ts) < 0)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


class _CountingModel:
    def __init__(self, shape):
        self.data_shape = shape
        self.calls = 0

    def predict(self, x, t, y):
        self.calls += 1
        return np.zeros_like(x)


def test_ddim_is_the_only_sampler_kind():
    assert SampleMethod("ddim", steps=10) == SampleMethod(steps=10)
    with pytest.raises(ValueError, match="'ddpm'"):
        SampleMethod("ddpm")


def test_sample_empty_batch():
    s = linear_schedule(10)
    m = _CountingModel((1, 4, 4))
    out = sample_raw(m, 0, 1, GuidanceSpec(), SampleMethod("ddim", 5), s, RngStream(14))
    assert out.shape == (0, 1, 4, 4)
    assert m.calls == 0


def test_sample_ddim_model_pair_accounting():
    s = linear_schedule(1000)
    m = _CountingModel((1, 2, 2))
    sample_raw(m, 3, 1, GuidanceSpec(), SampleMethod("ddim", 50), s, RngStream(15))
    assert m.calls == 100  # 50 steps x (conditional + unconditional)


def _toy_setup(seed):
    rng = RngStream(seed)
    sched = linear_schedule(400)
    mu = np.array([0.5, 0.5])
    n = 512
    x0 = np.concatenate([rng.normal((n, 2), 0, 0.1) - mu, rng.normal((n, 2), 0, 0.1) + mu])
    y = np.concatenate([np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.int64)])
    return rng, sched, mu, x0, y


@pytest.mark.slow
def test_sample_two_gaussian_toy_means():
    rng, sched, mu, x0, y = _toy_setup(7)
    model = MlpDenoiser(2, 96, 32, rng.split("model"))
    cfg = DiffusionTrainConfig(iterations=4000, batch=64, lr=2e-3, p_uncond=0.15)
    train_diffusion(model, x0, y, cfg, sched, rng.split("train"))
    tol = 0.15 * np.linalg.norm(mu)
    for cls, target in [(0, -mu), (1, mu)]:
        s = sample_raw(model, 300, cls, GuidanceSpec(1.0), SampleMethod("ddim", 50), sched, rng.split(f"s{cls}"))
        assert np.linalg.norm(s.mean(axis=0) - target) < tol


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def test_train_zero_iterations_unchanged():
    rng = RngStream(17)
    model = MlpDenoiser(2, 8, 8, rng)
    before = model.weight_bytes()
    losses = train_diffusion(model, np.zeros((4, 2)), np.zeros(4, dtype=np.int64), DiffusionTrainConfig(iterations=0), linear_schedule(10), rng)
    assert len(losses) == 0
    assert model.weight_bytes() == before


def test_train_converges_on_constant_image():
    rng = RngStream(18)
    sched = linear_schedule(100)
    x0 = np.full((16, 1, 4, 4), 0.5)
    y = np.zeros(16, dtype=np.int64)
    model = UNetDenoiser((1, 4, 4), 8, rng.split("m"), emb_dim=16)
    losses = train_diffusion(model, x0, y, DiffusionTrainConfig(iterations=500, batch=16, lr=3e-3), sched, rng.split("t"))
    ema = smoothed(losses)
    assert ema[-1] < 0.1 * ema[0]
    assert ema[-1] < ema[0]


def test_train_loss_curve_reproducible():
    def run():
        rng = RngStream(19)
        model = MlpDenoiser(2, 16, 8, rng.split("m"))
        return train_diffusion(
            model,
            RngStream(20).normal((32, 2)),
            np.zeros(32, dtype=np.int64),
            DiffusionTrainConfig(iterations=50, batch=8, lr=1e-3),
            linear_schedule(50),
            rng.split("t"),
        )

    assert np.array_equal(run(), run())


def test_train_divergence_aborts():
    rng = RngStream(21)
    model = MlpDenoiser(2, 16, 8, rng.split("m"))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError):
        train_diffusion(
            model,
            RngStream(22).normal((16, 2)),
            np.zeros(16, dtype=np.int64),
            DiffusionTrainConfig(iterations=10, batch=8, lr=1e150),
            linear_schedule(50),
            rng.split("t"),
        )


def test_unet_output_shape_matches_input():
    rng = RngStream(23)
    model = UNetDenoiser((3, 8, 8), 8, rng, emb_dim=16)
    x = Tensor(RngStream(24).normal((2, 3, 8, 8)))
    out = model(x, np.array([5, 9]), np.array([0, 2]))
    assert out.shape == (2, 3, 8, 8)
    assert model.class_embed.table.shape[0] == 3


def test_nan_in_a_unet_weight_makes_predict_raise():
    model = UNetDenoiser((4, 4, 4), 8, RngStream(3), emb_dim=16)
    model.mid.conv1.w.data[0, 0, 1, 1] = np.nan
    with pytest.raises(NonFiniteError):
        model.predict(RngStream(4).normal((3, 4, 4, 4)), np.full(3, 10), np.zeros(3, dtype=np.int64))
