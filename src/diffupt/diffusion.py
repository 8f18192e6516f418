"""Conditional denoising diffusion: schedule, loss, and the one sampler,
deterministic DDIM (eta = 0, Song et al. 2021) with classifier-free guidance.

The trained network predicts the noise injected by the forward process.
Class conditioning goes through a 3-row embedding table (class 0, class 1,
and a null token at index 2); unconditional capacity is trained by
replacing labels with the null token at a configured probability, and
sampling combines the two predictions as (1+w)*cond - w*uncond.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .data import check_counts
from .numcore import (
    CHWB_TO_NCHW,
    NCHW_TO_CHWB,
    Conv2d,
    Embedding,
    Linear,
    Module,
    ModuleList,
    RngStream,
    ShapeError,
    Tensor,
    adam_step,
    add_channel_bias,
    backward,
    concat,
    in_row_blocks,
    permute,
    silu,
)

NULL_TOKEN = 2


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------


@dataclass
class NoiseSchedule:
    """Variance schedule tables, indexed by timestep t in [1, T] at t-1."""

    T: int
    beta: np.ndarray
    alpha_bar: np.ndarray

    def abar(self, t) -> np.ndarray:
        """Cumulative signal coefficient; abar(0) == 1 by convention."""
        t = np.asarray(t)
        return np.where(t == 0, 1.0, self.alpha_bar[np.maximum(t, 1) - 1])

    def check_t(self, t) -> None:
        t = np.asarray(t)
        if t.size and (t.min() < 1 or t.max() > self.T):
            raise ValueError(f"timestep out of range [1,{self.T}]: {t.min()}..{t.max()}")


def linear_schedule(T: int, beta_start: float = 1e-4, beta_end: float = 0.02) -> NoiseSchedule:
    if T < 2:
        raise ValueError(f"T must be >= 2, got {T}")
    if not (0.0 < beta_start < beta_end < 1.0):
        raise ValueError(f"need 0 < beta_start < beta_end < 1, got ({beta_start}, {beta_end})")
    beta = np.linspace(beta_start, beta_end, T)
    return NoiseSchedule(T=T, beta=beta, alpha_bar=np.cumprod(1.0 - beta))


def _per_sample(coef: np.ndarray, ndim: int) -> np.ndarray:
    return coef.reshape(coef.shape + (1,) * (ndim - 1))


def q_sample(x0: np.ndarray, t, eps: np.ndarray, sched: NoiseSchedule) -> np.ndarray:
    """Forward noising: sqrt(abar_t) x0 + sqrt(1 - abar_t) eps."""
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if x0.shape != eps.shape:
        raise ShapeError(f"x0 and eps shapes differ: {x0.shape} vs {eps.shape}")
    sched.check_t(t)
    ab = sched.alpha_bar[np.asarray(t) - 1]
    if np.ndim(t) > 0:
        ab = _per_sample(ab, x0.ndim)
    return np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps


# ---------------------------------------------------------------------------
# guidance
# ---------------------------------------------------------------------------


@dataclass
class GuidanceSpec:
    w: float = 3.0

    def __post_init__(self):
        if not (np.isfinite(self.w) and self.w >= 0):
            raise ValueError(f"w must be finite and >= 0, got {self.w}")


def cfg_epsilon(eps_cond: np.ndarray, eps_uncond: np.ndarray, w: float) -> np.ndarray:
    """(1 + w) * eps_cond - w * eps_uncond."""
    eps_cond = np.asarray(eps_cond)
    eps_uncond = np.asarray(eps_uncond)
    if eps_cond.shape != eps_uncond.shape:
        raise ShapeError(f"guidance shapes differ: {eps_cond.shape} vs {eps_uncond.shape}")
    return (1.0 + w) * eps_cond - w * eps_uncond


# ---------------------------------------------------------------------------
# denoiser models
# ---------------------------------------------------------------------------


def sinusoidal_embedding(t: np.ndarray, dim: int) -> np.ndarray:
    """Fixed sin/cos timestep features of width ``dim`` (even)."""
    t = np.asarray(t, dtype=np.float64).reshape(-1, 1)
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / max(half - 1, 1))
    ang = t * freqs
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


# Rows per network pass in ``DenoiserModel.predict`` (``in_row_blocks`` gives
# the per-row bytes); the sampler's update and RNG draws stay whole-batch.
DENOISER_PASS_ROWS = 64


class DenoiserModel(Module):
    """Base: noise predictor conditioned on timestep and class token."""

    data_shape: tuple[int, ...]

    def __call__(self, x: Tensor, t: np.ndarray, y: np.ndarray) -> Tensor:
        raise NotImplementedError

    def predict(self, x: np.ndarray, t: np.ndarray, y: np.ndarray) -> np.ndarray:
        return in_row_blocks(self, DENOISER_PASS_ROWS, x, t, y)

    def _cond(self, t: np.ndarray, y: np.ndarray) -> Tensor:
        emb = Tensor(sinusoidal_embedding(t, self.emb_dim))
        h = silu(self.time_proj(emb))
        return h + self.class_embed(np.asarray(y, dtype=np.int64))


class _CondBlock(Module):
    """Two 3x3 convs with a conditioning bias injected between them."""

    def __init__(self, cin: int, cout: int, emb_dim: int, rng: RngStream):
        super().__init__()
        self.conv1 = Conv2d(cin, cout, rng.split("c1"), silu=True)
        self.proj = Linear(emb_dim, cout, rng.split("p"))
        self.conv2 = Conv2d(cout, cout, rng.split("c2"), silu=True)

    def __call__(self, x: Tensor, cond: Tensor) -> Tensor:
        h = add_channel_bias(self.conv1(x), self.proj(cond))
        return self.conv2(h)


class UNetDenoiser(DenoiserModel):
    """Small U-shaped convolutional denoiser with skip connections."""

    def __init__(
        self,
        data_shape: tuple[int, int, int],
        base_channels: int,
        rng: RngStream,
        emb_dim: int,
    ):
        super().__init__()
        c, h, w = data_shape
        if h != w:
            raise ShapeError(f"square inputs required, got {data_shape}")
        if h < 2:
            raise ShapeError(f"input must be at least 2x2, got {h}x{w}")
        # halve as often as leaves the bottom level at least 2x2, and at least once
        depth = 1
        while h // (2 ** (depth + 1)) >= 2:
            depth += 1
        self.data_shape = data_shape
        self.emb_dim = emb_dim
        self.depth = depth
        self.time_proj = Linear(emb_dim, emb_dim, rng.split("time"))
        self.class_embed = Embedding(3, emb_dim, rng.split("class"))

        widths = [base_channels * (2**i) for i in range(depth + 1)]
        self.stem = Conv2d(c, widths[0], rng.split("stem"), silu=True)
        self.down_blocks = ModuleList(
            _CondBlock(widths[i], widths[i], emb_dim, rng.split(f"down{i}")) for i in range(depth)
        )
        self.down_samplers = ModuleList(
            Conv2d(widths[i], widths[i + 1], rng.split(f"ds{i}"), stride=2, silu=True) for i in range(depth)
        )
        self.mid = _CondBlock(widths[depth], widths[depth], emb_dim, rng.split("mid"))
        self.up_convs = ModuleList(
            Conv2d(widths[i + 1], widths[i], rng.split(f"up{i}"), upsample=2, silu=True)
            for i in reversed(range(depth))
        )
        self.up_blocks = ModuleList(
            _CondBlock(2 * widths[i], widths[i], emb_dim, rng.split(f"ub{i}")) for i in reversed(range(depth))
        )
        self.head = Conv2d(widths[0], c, rng.split("head"))
        self.pack_parameters()

    def __call__(self, x: Tensor, t, y) -> Tensor:
        """Noise estimate for an NCHW batch; the convs run on (C, H, W, B) maps."""
        cond = self._cond(t, y)
        h = self.stem(permute(x, NCHW_TO_CHWB))
        skips = []
        for block, down in zip(self.down_blocks, self.down_samplers):
            h = block(h, cond)
            skips.append(h)
            h = down(h)
        h = self.mid(h, cond)
        for conv, block in zip(self.up_convs, self.up_blocks):
            h = conv(h)
            h = block(concat([h, skips.pop()], axis=0), cond)
        return permute(self.head(h), CHWB_TO_NCHW)


# ---------------------------------------------------------------------------
# training objective
# ---------------------------------------------------------------------------


def diffusion_loss(
    model: DenoiserModel,
    x0: np.ndarray,
    y: np.ndarray,
    sched: NoiseSchedule,
    rng: RngStream,
    p_uncond: float = 0.1,
) -> Tensor:
    """Mean squared noise-prediction error over a batch.

    Per sample: t ~ U{1..T}, eps ~ N(0,I), and the class label is replaced
    by the null token with probability p_uncond.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.shape[0] == 0:
        raise ValueError("batch must be nonempty")
    b = x0.shape[0]
    t = rng.integers((b,), 1, sched.T + 1)
    eps = rng.normal(x0.shape)
    y_used = np.asarray(y, dtype=np.int64).copy()
    if p_uncond > 0:
        drop = rng.uniform((b,)) < p_uncond
        y_used[drop] = NULL_TOKEN
    z_t = q_sample(x0, t, eps, sched)
    eps_hat = model(Tensor(z_t), t, y_used)
    diff = eps_hat - Tensor(eps)
    return (diff * diff).mean()


@dataclass
class DiffusionTrainConfig:
    iterations: int = 3000
    batch: int = 32
    lr: float = 1e-3
    p_uncond: float = 0.1
    ema_decay: float = 0.999  # weight average used for sampling stability

    def __post_init__(self):
        check_counts(self, 0, "iterations")
        check_counts(self, 1, "batch")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        for name in ("p_uncond", "ema_decay"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {getattr(self, name)}")


def train_diffusion(
    model: DenoiserModel,
    x0: np.ndarray,
    y: np.ndarray,
    cfg: DiffusionTrainConfig,
    sched: NoiseSchedule,
    rng: RngStream,
) -> np.ndarray:
    """Train in place; returns the per-iteration loss curve.

    The model is left holding an exponential moving average of its weights,
    which damps end-of-training optimizer noise in the learned score.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.shape[0] == 0:
        raise ValueError("dataset must be nonempty")
    n = x0.shape[0]
    params = model.parameters()
    losses = np.zeros(cfg.iterations)
    if cfg.iterations == 0:
        return losses
    values = model.parameter_buffer[0]
    ema = values.copy()
    for i in range(cfg.iterations):
        idx = rng.integers((cfg.batch,), 0, n)
        try:
            loss = diffusion_loss(model, x0[idx], y[idx], sched, rng, cfg.p_uncond)
            val = loss.item()
            if not np.isfinite(val):
                raise nc.NonFiniteError("loss")
            backward(loss)
            adam_step(params, cfg.lr)
        except nc.NonFiniteError as e:
            raise DivergenceError(f"diffusion training diverged at iteration {i}: {e}") from e
        losses[i] = val
        d = min(cfg.ema_decay, (i + 1.0) / (i + 10.0))
        ema *= d
        ema += (1.0 - d) * values
    values[...] = ema
    return losses


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


@dataclass
class SampleMethod:
    """DDIM at eta = 0 over ``steps`` timesteps of the schedule. ``kind`` has
    one value; it stays the first field because callers pass it positionally."""

    kind: str = "ddim"
    steps: int = 50

    def __post_init__(self):
        if self.kind != "ddim":
            raise ValueError(f"unknown sampler kind {self.kind!r}; DDIM is the only sampler")
        check_counts(self, 1, "steps")


def ddim_step(x_t: np.ndarray, t: int, t_prev: int, eps_hat: np.ndarray, sched: NoiseSchedule) -> np.ndarray:
    """Deterministic (eta = 0) reverse step from ``t`` to ``t_prev`` < ``t``."""
    if t_prev >= t:
        raise ValueError(f"t_prev must be < t, got {t_prev} >= {t}")
    sched.check_t(t)
    ab_t = sched.alpha_bar[t - 1]
    ab_p = float(sched.abar(t_prev))
    x0_pred = (x_t - np.sqrt(1.0 - ab_t) * eps_hat) / np.sqrt(ab_t)
    return np.sqrt(ab_p) * x0_pred + np.sqrt(1.0 - ab_p) * eps_hat


def ddim_timesteps(T: int, steps: int) -> np.ndarray:
    """Descending subsequence of timesteps ending at 1."""
    if steps < 1 or steps > T:
        raise ValueError(f"steps must lie in [1,{T}], got {steps}")
    ts = np.unique(np.round(np.linspace(1, T, steps)).astype(np.int64))[::-1]
    return ts


def predict_eps(model: DenoiserModel, x: np.ndarray, t: int, y: int, w: float) -> np.ndarray:
    """Guided noise estimate via the conditional/unconditional model pair."""
    n = x.shape[0]
    t_vec = np.full(n, t, dtype=np.int64)
    eps_c = model.predict(x, t_vec, np.full(n, y, dtype=np.int64))
    eps_u = model.predict(x, t_vec, np.full(n, NULL_TOKEN, dtype=np.int64))
    return cfg_epsilon(eps_c, eps_u, w)


def sample_raw(
    model: DenoiserModel,
    n: int,
    y: int,
    guidance: GuidanceSpec,
    method: SampleMethod,
    sched: NoiseSchedule,
    rng: RngStream,
) -> np.ndarray:
    """Reverse-process samples, unclamped (``latentae.latent_diffusion_sample`` decodes and clamps them)."""
    shape = (n,) + tuple(model.data_shape)
    if n == 0:
        return np.zeros(shape)
    x = rng.normal(shape)
    ts = ddim_timesteps(sched.T, method.steps)
    for i, t in enumerate(ts):
        t_prev = int(ts[i + 1]) if i + 1 < len(ts) else 0
        eps = predict_eps(model, x, int(t), y, guidance.w)
        x = ddim_step(x, int(t), t_prev, eps, sched)
    return x
