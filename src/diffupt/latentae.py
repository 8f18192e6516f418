"""Convolutional autoencoder and the encode/diffuse/decode composition.

The encoder compresses images by a power-of-two spatial factor into a
small multichannel latent; diffusion then runs on whitened latents (the
per-channel shift/scale calibrated after training is stored with the
model weights). ``encode`` and ``decode`` work on raw latents; ``whiten``
and ``unwhiten`` convert between those and what diffusion sees.
The one path from noise to images is ``pipeline.GenerativeStack.sample_class``:
DDIM from given whitened-latent noise (``diffusion.sample_raw``), then
``unwhiten``, ``decode`` and a clamp into [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .data import LabeledDataset, check_counts
from .metrics import ssim_map
from .numcore import (
    CHWB_TO_NCHW,
    NCHW_TO_CHWB,
    Conv2d,
    DivergenceError,
    Module,
    RngStream,
    ShapeError,
    Tensor,
    adam_step,
    backward,
    in_row_blocks,
    permute,
    row_blocks,
)


class Autoencoder(Module):
    """Encoder/decoder pair with a (latent_channels, H/4, W/4) bottleneck."""

    def __init__(self, image_size: int, in_channels: int, base_channels: int, latent_channels: int, rng: RngStream):
        super().__init__()
        if image_size % 4 != 0:
            raise ShapeError(f"image size must be divisible by 4, got {image_size}")
        bc = base_channels
        self.image_shape = (in_channels, image_size, image_size)
        self.latent_shape = (latent_channels, image_size // 4, image_size // 4)
        self.enc1 = Conv2d(in_channels, bc, rng.split("e1"), stride=2, silu=True)
        self.enc2 = Conv2d(bc, 2 * bc, rng.split("e2"), stride=2, silu=True)
        self.enc3 = Conv2d(2 * bc, latent_channels, rng.split("e3"))
        self.dec1 = Conv2d(latent_channels, 2 * bc, rng.split("d1"), silu=True)
        self.dec2 = Conv2d(2 * bc, bc, rng.split("d2"), upsample=2, silu=True)
        self.out = Conv2d(bc, in_channels, rng.split("out"), upsample=2)
        self.register_buffer("latent_shift", np.zeros(latent_channels))
        self.register_buffer("latent_scale", np.ones(latent_channels))
        self.pack_parameters()

    def encode_t(self, x: Tensor) -> Tensor:
        """NCHW images to NCHW latents."""
        h = self.enc2(self.enc1(permute(x, NCHW_TO_CHWB)))
        return permute(self.enc3(h), CHWB_TO_NCHW)

    def decode_t(self, z: Tensor) -> Tensor:
        """NCHW latents to NCHW images."""
        h = self.dec2(self.dec1(permute(z, NCHW_TO_CHWB)))
        return permute(self.out(h), CHWB_TO_NCHW)


def encode(ae: Autoencoder, images: np.ndarray) -> np.ndarray:
    """Deterministic image -> latent map (``whiten`` gives what diffusion sees)."""
    images = np.asarray(images, dtype=np.float64)
    if images.shape[1:] != ae.image_shape:
        raise ShapeError(f"expected images shaped (N,{ae.image_shape}), got {images.shape}")
    return in_row_blocks(ae.encode_t, images)


def whiten(ae: Autoencoder, z: np.ndarray) -> np.ndarray:
    """Latents from ``encode`` with the calibrated per-channel shift and scale taken out."""
    return (z - ae.latent_shift[:, None, None]) / ae.latent_scale[:, None, None]


def unwhiten(ae: Autoencoder, z: np.ndarray) -> np.ndarray:
    """The inverse of ``whiten``: whitened latents back to ``encode``'s raw ones."""
    return z * ae.latent_scale[:, None, None] + ae.latent_shift[:, None, None]


def decode(ae: Autoencoder, z: np.ndarray) -> np.ndarray:
    """Raw latent -> image map (``unwhiten`` first for whitened latents);
    output is unclamped (clamp at the consumer)."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape[1:] != ae.latent_shape:
        raise ShapeError(f"expected latents shaped (N,{ae.latent_shape}), got {z.shape}")
    return in_row_blocks(ae.decode_t, z)


def calibrate_latents(ae: Autoencoder, z: np.ndarray) -> None:
    """Store the per-channel moments of latents ``z`` (``encode`` output) so
    diffusion sees whitened latents."""
    ae.latent_shift[...] = z.mean(axis=(0, 2, 3))
    ae.latent_scale[...] = np.maximum(z.std(axis=(0, 2, 3)), 1e-6)


@dataclass
class AeTrainConfig:
    """Training length; ``AE_BATCH`` and ``AE_LR`` are constants."""

    iterations: int = 1200

    def __post_init__(self):
        check_counts(self, 0, "iterations")


# autoencoder training's batch rows and Adam learning rate
AE_BATCH = 32
AE_LR = 2e-3
# the share of a set's last rows kept out of autoencoder training for the report
_HOLDOUT_FRACTION = 0.1


def training_rows(n: int) -> int:
    """How many leading rows of an n-row set ``train_autoencoder`` trains on;
    the rest (at least one row when n > 1) are the report's holdout."""
    return n - max(1, int(n * _HOLDOUT_FRACTION)) if n > 1 else n


@dataclass
class ReconstructionReport:
    rows: list[tuple[str, float, float]]  # (split, mse, ssim)


def reconstruction_report(ae: Autoencoder, images: np.ndarray, z: np.ndarray, split: str) -> tuple[str, float, float]:
    """(split, mse, ssim) of decoding ``z``, the latents of ``images``.

    Rows are decoded and scored in ``decode``'s own row blocks, so only a
    squared error per pixel and an SSIM value per window (``ssim_map``)
    grow with the rows; one ``np.mean`` of each gives the figures of
    decoding and scoring all rows at once, bit for bit."""
    squared = np.empty(images.shape)
    ssim = None
    for a, b in row_blocks(len(z)):
        recon = decode(ae, z[a:b])
        np.subtract(recon, images[a:b], out=squared[a:b])
        block = ssim_map(images[a:b], np.clip(recon, 0.0, 1.0, out=recon))
        if ssim is None:
            ssim = np.empty((len(z),) + block.shape[1:])
        ssim[a:b] = block
    np.square(squared, out=squared)
    return (split, float(np.mean(squared)), float(np.mean(ssim)))


def calibrate_and_report(ae: Autoencoder, images: np.ndarray, z: np.ndarray, trained: bool) -> ReconstructionReport:
    """From ``z = encode(ae, images)`` of the set ``train_autoencoder`` trained
    on: calibrate the latent whitening on the training rows (if ``trained``)
    and report the reconstruction of the training and holdout rows."""
    n = training_rows(len(images))
    if trained:
        calibrate_latents(ae, z[:n])
    rows = [reconstruction_report(ae, images[:n], z[:n], "train")]
    if n < len(images):
        rows.append(reconstruction_report(ae, images[n:], z[n:], "holdout"))
    return ReconstructionReport(rows)


def train_autoencoder(ae: Autoencoder, ds: LabeledDataset, cfg: AeTrainConfig, rng: RngStream) -> None:
    """MSE-train in place on the leading ``training_rows`` of ``ds``, in
    ``AE_BATCH``-row batches at Adam learning rate ``AE_LR``; then
    ``calibrate_and_report`` sets the whitening from the set's latents."""
    if len(ds) == 0:
        raise ValueError("dataset must be nonempty")
    n = training_rows(len(ds))
    train_imgs = ds.images[:n]

    params = ae.parameters()
    for i in range(cfg.iterations):
        idx = rng.integers((AE_BATCH,), 0, n)
        batch = Tensor(train_imgs[idx])
        try:
            recon = ae.decode_t(ae.encode_t(batch))
            diff = recon - batch
            loss = (diff * diff).mean()
            backward(loss)
            adam_step(params, AE_LR)
        except nc.NonFiniteError as e:
            raise DivergenceError(f"autoencoder training diverged at iteration {i}: {e}") from e
