"""Binary classifier and the baseline imbalance-handling training regimes.

One small convolutional feature extractor (global-average-pooled to a
fixed-width vector) with a single-logit head covers every regime: plain
or class-weighted cross-entropy, uniform or class-balanced sampling, and
two-stage decoupled retraining, where only the head is retrained under a
balanced sampler, on the training set's features computed once.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import metrics as M
from . import numcore as nc
from .data import IndexSampler, LabeledDataset, check_counts, class_weights
from .diffusion import DivergenceError
from .numcore import (
    NCHW_TO_CHWB,
    Conv2d,
    Linear,
    Module,
    RngStream,
    Tensor,
    adam_step,
    backward,
    bce_with_logits,
    in_row_blocks,
    mean_pool,
    permute,
)


# Rows per network pass in predict_proba and extract_features (``in_row_blocks``
# gives the per-row bytes).
CLASSIFIER_PASS_ROWS = 128


class ClassifierModel(Module):
    """Conv feature extractor over (C, H, W) images plus a one-logit sigmoid head."""

    conv_channels = (8, 16)  # the stride-2 convs' widths
    feature_dim = 16  # the pooled features' width

    def __init__(self, input_shape: tuple[int, int, int], rng: RngStream):
        super().__init__()
        self.input_shape = tuple(input_shape)
        if len(self.input_shape) != 3:
            raise nc.ShapeError(f"input shape must be (C, H, W), got {self.input_shape}")
        self.trained = False
        r = rng.split("features")
        c_in = self.input_shape[0]
        self.convs = nc.ModuleList()
        for i, c_out in enumerate(self.conv_channels):
            self.convs.append(Conv2d(c_in, c_out, r.split(f"c{i}"), stride=2, silu=True))
            c_in = c_out
        self.mix = Conv2d(c_in, self.feature_dim, r.split("mix"), silu=True)
        self.head = Linear(self.feature_dim, 1, rng.split("head"))
        self.pack_parameters()

    def features_t(self, x: Tensor) -> Tensor:
        """(B, F) features of an NCHW batch; the convs run on (C, H, W, B) maps."""
        h = permute(x, NCHW_TO_CHWB)
        for conv in self.convs:
            h = conv(h)
        return mean_pool(self.mix(h))

    def logits_t(self, x: Tensor) -> Tensor:
        return self.head(self.features_t(x)).reshape(-1)

    def extract_features(self, images: np.ndarray) -> np.ndarray:
        return in_row_blocks(self.features_t, CLASSIFIER_PASS_ROWS, np.asarray(images, dtype=np.float64))

    def predict_proba(self, images: np.ndarray) -> np.ndarray:
        logits = in_row_blocks(self.logits_t, CLASSIFIER_PASS_ROWS, np.asarray(images, dtype=np.float64))
        return nc.tensor._sigmoid_np(logits)


def bce_loss(logits: Tensor, labels: np.ndarray, weights: tuple[float, float] | None = None) -> Tensor:
    """Mean binary cross-entropy on logits, stabilized via softplus, one tape node.

    softplus(x) - y*x == -[y log p + (1-y) log(1-p)] for p = sigmoid(x).
    ``weights`` (class 0, class 1) weigh each row by its label's weight.
    """
    y = np.asarray(labels, dtype=np.float64)
    if logits.shape != y.shape:
        raise nc.ShapeError(f"logits {logits.shape} vs labels {y.shape}")
    w = None if weights is None else np.where(y == 1, weights[1], weights[0])
    return bce_with_logits(logits, y, w)


@dataclass
class TrainRegime:
    """How a classifier trains. ``weighted_loss`` weighs each row's BCE by its
    class's ``class_weights`` (inverse frequency in the training set), and
    ``balanced_sampler`` draws batches with those weights, so both classes
    come up equally often."""

    weighted_loss: bool = False
    balanced_sampler: bool = False
    lr: float = 1e-3
    iterations: int = 1500
    batch: int = 32
    eval_every: int = 100

    def __post_init__(self):
        check_counts(self, 1, "batch", "eval_every")
        check_counts(self, 0, "iterations")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")


@dataclass
class HistoryRow:
    iteration: int
    loss: float
    val_sens: float
    val_spec: float
    val_hm: float
    val_auc: float


def train_classifier(
    model: ClassifierModel,
    ds: LabeledDataset,
    regime: TrainRegime,
    rng: RngStream,
    val_ds: LabeledDataset | None = None,
) -> list[HistoryRow]:
    """Train in place; keeps the best-validation-harmonic-mean checkpoint."""
    return _train(model, model.parameters(), ds.images, model.logits_t, ds, regime, rng, val_ds)


def _train(
    model: ClassifierModel, params: list[nc.Parameter], rows: np.ndarray, net: Callable[[Tensor], Tensor],
    ds: LabeledDataset, regime: TrainRegime, rng: RngStream, val_ds: LabeledDataset | None,
) -> list[HistoryRow]:
    """Adam on ``params`` over batches of ``rows`` (row i stands for ``ds``'s
    image i), which ``net`` maps to logits. Validation runs the whole model,
    and its best-harmonic-mean values are restored at the end."""
    if len(ds) == 0:
        raise ValueError("dataset must be nonempty")
    weights = class_weights(ds) if regime.weighted_loss else None
    sampler = IndexSampler(ds, rng.split("sampler"), regime.balanced_sampler)

    values = model.parameter_buffer[0]
    history: list[HistoryRow] = []
    best_hm = -np.inf
    best_values = None

    def evaluate(it, loss_val):
        nonlocal best_hm, best_values
        if val_ds is None or len(val_ds) == 0:
            return
        rep = M.evaluate_probs(model.predict_proba(val_ds.images), val_ds.labels)
        history.append(HistoryRow(it, loss_val, rep.sensitivity, rep.specificity, rep.harmonic_mean, rep.auc))
        hm = rep.harmonic_mean if np.isfinite(rep.harmonic_mean) else -np.inf
        if hm >= best_hm:
            best_hm = hm
            best_values = values.copy()

    for i in range(regime.iterations):
        idx = sampler.draw(regime.batch)
        x = Tensor(rows[idx])
        try:
            logits = net(x)
            loss = bce_loss(logits, ds.labels[idx], weights)
            val = loss.item()
            if not np.isfinite(val):
                raise nc.NonFiniteError("loss")
            backward(loss)
            adam_step(params, regime.lr)
        except nc.NonFiniteError as e:
            raise DivergenceError(f"classifier training diverged at iteration {i}: {e}") from e
        if (i + 1) % regime.eval_every == 0 or i + 1 == regime.iterations:
            evaluate(i + 1, val)

    if best_values is not None:
        values[...] = best_values
    if regime.iterations > 0:
        model.trained = True
    return history


def multi_stage_retrain(
    model: ClassifierModel,
    ds: LabeledDataset,
    rng: RngStream,
    val_ds: LabeledDataset | None = None,
    iterations: int = 600,
    lr: float = 1e-3,
    batch: int = 32,
) -> list[HistoryRow]:
    """Re-initialize the head and retrain it class-balanced on the training
    set's features, computed once: the feature extractor is never stepped, and
    no gradient reaches it."""
    if not model.trained:
        warnings.warn("multi_stage_retrain called on an untrained model; proceeding")
    model.head.reset(rng.split("head-reinit"))
    regime = TrainRegime(balanced_sampler=True, lr=lr, iterations=iterations, batch=batch)
    features = model.extract_features(ds.images)
    head = model.head
    return _train(model, head.parameters(), features, lambda f: head(f).reshape(-1), ds, regime, rng.split("stage2"), val_ds)


def embedding_statistics(model: ClassifierModel, ds: LabeledDataset, reg: float = 1e-6) -> dict[str, float]:
    """Per-class feature variance (covariance trace) and Bhattacharyya overlap."""
    feats = model.extract_features(ds.images)
    out: dict[str, float] = {}
    mus, covs = [], []
    for cls in (0, 1):
        f = feats[ds.labels == cls]
        mu = f.mean(axis=0)
        cov = np.cov(f, rowvar=False) if f.shape[0] > 1 else np.eye(feats.shape[1])
        out[f"variance_class{cls}"] = float(np.trace(np.atleast_2d(cov)))
        mus.append(mu)
        covs.append(np.atleast_2d(cov))
    d = feats.shape[1]
    sig = 0.5 * (covs[0] + covs[1]) + reg * np.eye(d)
    diff = mus[0] - mus[1]
    sign, logdet = np.linalg.slogdet(sig)
    dets = [np.linalg.slogdet(c + reg * np.eye(d))[1] for c in covs]
    out["bhattacharyya"] = float(
        0.125 * diff @ np.linalg.solve(sig, diff) + 0.5 * (logdet - 0.5 * (dets[0] + dets[1]))
    )
    return out
