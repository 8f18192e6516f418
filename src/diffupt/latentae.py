"""Convolutional autoencoder and the encode/diffuse/decode composition.

The encoder compresses images by a power-of-two spatial factor into a
small multichannel latent; diffusion then runs on whitened latents (the
per-channel shift/scale calibrated after training is stored with the
model weights) and decoded samples are clamped at the consumer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffusion as df
from . import numcore as nc
from .data import LabeledDataset
from .metrics import mean_ssim
from .numcore import Conv2d, Module, RngStream, ShapeError, Tensor, adam_step, backward, no_grad, silu, upsample2x


class Autoencoder(Module):
    """Encoder/decoder pair with a (latent_channels, H/4, W/4) bottleneck."""

    def __init__(self, image_size: int = 16, in_channels: int = 1, base_channels: int = 16, latent_channels: int = 4, rng: RngStream | None = None):
        super().__init__()
        if image_size % 4 != 0:
            raise ShapeError(f"image size must be divisible by 4, got {image_size}")
        rng = rng or RngStream(0)
        bc = base_channels
        self.image_shape = (in_channels, image_size, image_size)
        self.latent_shape = (latent_channels, image_size // 4, image_size // 4)
        self.enc1 = Conv2d(in_channels, bc, 3, rng.split("e1"), stride=2, pad=1)
        self.enc2 = Conv2d(bc, 2 * bc, 3, rng.split("e2"), stride=2, pad=1)
        self.enc3 = Conv2d(2 * bc, latent_channels, 3, rng.split("e3"), pad=1)
        self.dec1 = Conv2d(latent_channels, 2 * bc, 3, rng.split("d1"), pad=1)
        self.dec2 = Conv2d(2 * bc, bc, 3, rng.split("d2"), pad=1)
        self.out = Conv2d(bc, in_channels, 3, rng.split("out"), pad=1)
        self.register_buffer("latent_shift", np.zeros(latent_channels))
        self.register_buffer("latent_scale", np.ones(latent_channels))

    def encode_t(self, x: Tensor) -> Tensor:
        h = silu(self.enc1(x))
        h = silu(self.enc2(h))
        return self.enc3(h)

    def decode_t(self, z: Tensor) -> Tensor:
        h = silu(self.dec1(z))
        h = silu(self.dec2(upsample2x(h)))
        return self.out(upsample2x(h))


# Rows per network pass in encode/decode. A pass's conv buffers grow with its
# rows (dec2's output-side product alone is 115 KB a row, 52 MB for the 454-row
# reconstruction report); 64 rows bound them to a few MB, and the conv GEMMs
# are no slower at that width. Rows are independent, so the output is the same.
AE_PASS_ROWS = 64


def _in_passes(net, x: np.ndarray) -> np.ndarray:
    """``net`` over ``x`` in passes of at most ``AE_PASS_ROWS`` rows, without gradients."""
    starts = range(0, max(len(x), 1), AE_PASS_ROWS)  # one pass for no rows keeps the empty output's shape
    with no_grad():
        return np.concatenate([net(Tensor(x[i : i + AE_PASS_ROWS])).data for i in starts])


def encode(ae: Autoencoder, images: np.ndarray, normalized: bool = False) -> np.ndarray:
    """Deterministic image -> latent map; optionally whitened per channel."""
    images = np.asarray(images, dtype=np.float64)
    if images.shape[1:] != ae.image_shape:
        raise ShapeError(f"expected images shaped (N,{ae.image_shape}), got {images.shape}")
    z = _in_passes(ae.encode_t, images)
    if normalized:
        z = (z - ae.latent_shift[:, None, None]) / ae.latent_scale[:, None, None]
    return z


def decode(ae: Autoencoder, z: np.ndarray, normalized: bool = False) -> np.ndarray:
    """Latent -> image map; output is unclamped (clamp at the consumer)."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape[1:] != ae.latent_shape:
        raise ShapeError(f"expected latents shaped (N,{ae.latent_shape}), got {z.shape}")
    if normalized:
        z = z * ae.latent_scale[:, None, None] + ae.latent_shift[:, None, None]
    return _in_passes(ae.decode_t, z)


def calibrate_latents(ae: Autoencoder, images: np.ndarray) -> None:
    """Store per-channel latent moments so diffusion sees whitened latents."""
    z = encode(ae, images)
    ae.latent_shift[...] = z.mean(axis=(0, 2, 3))
    ae.latent_scale[...] = np.maximum(z.std(axis=(0, 2, 3)), 1e-6)


@dataclass
class AeTrainConfig:
    iterations: int = 1200
    batch: int = 32
    lr: float = 2e-3


@dataclass
class ReconstructionReport:
    rows: list[tuple[str, float, float]]  # (split, mse, ssim)


def reconstruction_report(ae: Autoencoder, images: np.ndarray, split: str) -> tuple[str, float, float]:
    recon = decode(ae, encode(ae, images))
    mse = float(np.mean((recon - images) ** 2))
    return (split, mse, mean_ssim(images, np.clip(recon, 0.0, 1.0)))


def train_autoencoder(
    ae: Autoencoder,
    ds: LabeledDataset,
    cfg: AeTrainConfig,
    rng: RngStream,
    holdout_fraction: float = 0.1,
) -> ReconstructionReport:
    """MSE-train in place; returns per-split reconstruction rows and
    calibrates the latent whitening buffers on the training slice."""
    if len(ds) == 0:
        raise ValueError("dataset must be nonempty")
    n_hold = max(1, int(len(ds) * holdout_fraction)) if len(ds) > 1 else 0
    images = ds.images
    train_imgs = images[: len(ds) - n_hold] if n_hold else images
    hold_imgs = images[len(ds) - n_hold :] if n_hold else images

    params = ae.parameters()
    n = train_imgs.shape[0]
    for i in range(cfg.iterations):
        idx = rng.integers((cfg.batch,), 0, n)
        batch = Tensor(train_imgs[idx])
        try:
            recon = ae.decode_t(ae.encode_t(batch))
            diff = recon - batch
            loss = (diff * diff).mean()
            if not np.isfinite(loss.item()):
                raise nc.NonFiniteError("loss")
            backward(loss)
            adam_step(params, cfg.lr)
        except nc.NonFiniteError as e:
            raise df.DivergenceError(f"autoencoder training diverged at iteration {i}: {e}") from e
    if cfg.iterations > 0:
        calibrate_latents(ae, train_imgs)
    rows = [reconstruction_report(ae, train_imgs, "train")]
    if n_hold:
        rows.append(reconstruction_report(ae, hold_imgs, "holdout"))
    return ReconstructionReport(rows)


def latent_diffusion_sample(
    ae: Autoencoder,
    denoiser: df.DenoiserModel,
    n: int,
    y: int,
    guidance: df.GuidanceSpec,
    method: df.SampleMethod,
    sched: df.NoiseSchedule,
    rng: RngStream,
) -> np.ndarray:
    """Sample whitened latents, decode, clamp into [0,1]."""
    if tuple(denoiser.data_shape) != tuple(ae.latent_shape):
        raise ShapeError(
            f"denoiser works on {denoiser.data_shape} but autoencoder latents are {ae.latent_shape}"
        )
    if n == 0:
        return np.zeros((0,) + ae.image_shape)
    z = df.sample_raw(denoiser, n, y, guidance, method, sched, rng)
    return np.clip(decode(ae, z, normalized=True), 0.0, 1.0)
