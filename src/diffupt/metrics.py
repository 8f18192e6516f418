"""Classification metrics, and SSIM for the autoencoder's reconstructions.

Classification: confusion counts at a threshold, sensitivity/specificity,
their harmonic mean, and trapezoidal ROC AUC. SSIM scores how well the
autoencoder reconstructs its images (``latentae.ReconstructionReport``):
``ssim_map`` gives every 8x8 window's value, with the stability constants
of Wang et al. (2004) for images in [0, 1]; the report takes their mean.

Percentages are reported in [0, 100]. Undefined ratios (empty denominator,
single-class AUC) return NaN rather than a silent zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

UNDEFINED = float("nan")


@dataclass
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        for name in ("tp", "fp", "tn", "fn"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def positives(self) -> int:
        return self.tp + self.fn

    @property
    def negatives(self) -> int:
        return self.tn + self.fp


@dataclass
class EvalReport:
    """One evaluation: headline percentages and the confusion counts they come from."""

    sensitivity: float
    specificity: float
    harmonic_mean: float
    auc: float
    confusion: ConfusionCounts


def confusion(probs, labels, threshold: float = 0.5) -> ConfusionCounts:
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    if probs.shape != labels.shape:
        raise ValueError(f"probs and labels length mismatch: {probs.shape} vs {labels.shape}")
    pred = probs >= threshold
    pos = labels == 1
    return ConfusionCounts(
        tp=int(np.sum(pred & pos)),
        fp=int(np.sum(pred & ~pos)),
        tn=int(np.sum(~pred & ~pos)),
        fn=int(np.sum(~pred & pos)),
    )


def sensitivity(c: ConfusionCounts) -> float:
    if c.positives == 0:
        return UNDEFINED
    return 100.0 * c.tp / c.positives


def specificity(c: ConfusionCounts) -> float:
    if c.negatives == 0:
        return UNDEFINED
    return 100.0 * c.tn / c.negatives


def harmonic_mean(sens: float, spec: float) -> float:
    if not (np.isfinite(sens) and np.isfinite(spec)) or sens + spec == 0:
        return UNDEFINED
    return 2.0 * sens * spec / (sens + spec)


def auc(probs, labels) -> float:
    """Trapezoidal area under the ROC; ties grouped by threshold."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        return UNDEFINED
    order = np.argsort(-probs, kind="stable")
    sorted_labels = labels[order]
    sorted_probs = probs[order]
    # One ROC point per unique threshold: cumulative tp/fp after each group.
    tps = np.cumsum(sorted_labels == 1)
    fps = np.cumsum(sorted_labels == 0)
    last_of_group = np.append(np.diff(sorted_probs) != 0, True)
    tpr = np.concatenate([[0.0], tps[last_of_group] / n_pos])
    fpr = np.concatenate([[0.0], fps[last_of_group] / n_neg])
    return float(np.trapezoid(tpr, fpr))


def evaluate_probs(probs, labels, threshold: float = 0.5) -> EvalReport:
    """The report of probabilities ``probs`` against 0/1 ``labels``: the
    confusion counts at ``threshold``, the sensitivity, specificity and
    harmonic mean derived from them, and the AUC."""
    c = confusion(probs, labels, threshold)
    sens = sensitivity(c)
    spec = specificity(c)
    return EvalReport(
        sensitivity=sens,
        specificity=spec,
        harmonic_mean=harmonic_mean(sens, spec),
        auc=auc(probs, labels),
        confusion=c,
    )


# ---------------------------------------------------------------------------
# reconstruction quality
# ---------------------------------------------------------------------------


# SSIM's window width (narrower only for smaller images) and the SSIM
# constants' (0.01 L)^2 and (0.03 L)^2 at dynamic range L = 1
SSIM_WINDOW = 8
_C1 = 0.01**2
_C2 = 0.03**2


def ssim_map(batch_a, batch_b) -> np.ndarray:
    """SSIM of every dense square window of every image pair, shaped
    (N, H - win + 1, W - win + 1).

    Each row of the batches is one image, its trailing two axes H x W. The
    window is ``min(SSIM_WINDOW, H, W)`` wide. Every window's means,
    variances and covariance come from 2-D cumulative sums (box sums) of all
    images at once, so the cost is a few whole-batch passes.
    Each image's windows depend on that image alone, so a map built from
    blocks of rows is bitwise the map of all rows at once.
    """
    a = np.asarray(batch_a, dtype=np.float64)
    b = np.asarray(batch_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    n = a.shape[0]
    h, w = a.shape[-2:]
    a = a.reshape(n, h, w)
    b = b.reshape(n, h, w)
    win = min(SSIM_WINDOW, h, w)

    def window_mean(x: np.ndarray) -> np.ndarray:
        c = np.zeros((n, h + 1, w + 1))
        inner = c[:, 1:, 1:]
        np.cumsum(x, axis=1, out=inner)
        np.cumsum(inner, axis=2, out=inner)
        box = c[:, win:, win:] - c[:, :-win, win:] - c[:, win:, :-win] + c[:, :-win, :-win]
        return box / (win * win)

    # centred images keep the sums small, so E[x^2] - E[x]^2 cancels little
    mean_a = a.mean(axis=(1, 2), keepdims=True)
    mean_b = b.mean(axis=(1, 2), keepdims=True)
    a = a - mean_a
    b = b - mean_b
    dev_a = window_mean(a)
    dev_b = window_mean(b)
    var_a = window_mean(a * a) - dev_a * dev_a
    var_b = window_mean(b * b) - dev_b * dev_b
    cov = window_mean(a * b) - dev_a * dev_b
    mu_a = dev_a + mean_a
    mu_b = dev_b + mean_b
    num = (2 * mu_a * mu_b + _C1) * (2 * cov + _C2)
    den = (mu_a**2 + mu_b**2 + _C1) * (var_a + var_b + _C2)
    return num / den
