"""Binary classifier and the baseline imbalance-handling training regimes.

One small convolutional feature extractor (global-average-pooled to a
fixed-width vector) with a single-logit head covers every regime: plain
or class-weighted cross-entropy, uniform or class-weighted sampling, and
two-stage decoupled retraining where the features are frozen and only the
head is retrained under a balanced sampler.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import metrics as M
from . import numcore as nc
from .data import IndexSampler, LabeledDataset, SamplerSpec, class_weights
from .diffusion import DivergenceError
from .numcore import (
    Conv2d,
    Linear,
    Module,
    RngStream,
    Tensor,
    adam_step,
    backward,
    no_grad,
    silu,
    softplus,
)


class ClassifierModel(Module):
    """Conv (or MLP) feature extractor plus a one-logit sigmoid head."""

    def __init__(
        self,
        input_shape: tuple[int, ...],
        rng: RngStream,
        conv_channels: tuple[int, ...] = (8, 16),
        feature_dim: int = 16,
    ):
        super().__init__()
        self.input_shape = tuple(input_shape)
        self.conv_mode = len(self.input_shape) == 3 and len(conv_channels) > 0
        self.feature_dim = feature_dim
        self.trained = False
        r = rng.split("features")
        if self.conv_mode:
            c_in = self.input_shape[0]
            self.convs = nc.ModuleList()
            for i, c_out in enumerate(conv_channels):
                self.convs.append(Conv2d(c_in, c_out, 3, r.split(f"c{i}"), stride=2, pad=1))
                c_in = c_out
            self.mix = Conv2d(c_in, feature_dim, 3, r.split("mix"), pad=1)
        else:
            dim = int(np.prod(self.input_shape))
            self.fc1 = Linear(dim, feature_dim, r.split("fc1"))
            self.fc2 = Linear(feature_dim, feature_dim, r.split("fc2"))
        self.head = Linear(feature_dim, 1, rng.split("head"))

    def feature_parameters(self) -> list[nc.Parameter]:
        return [p for name, p in self.named_parameters() if not name.startswith("head.")]

    def features_t(self, x: Tensor) -> Tensor:
        b = x.shape[0]
        if self.conv_mode:
            h = x
            for conv in self.convs:
                h = silu(conv(h))
            h = silu(self.mix(h))
            h = h.reshape(b, self.feature_dim, -1)
            return h.mean(axis=2)
        h = silu(self.fc1(x.reshape(b, -1)))
        return silu(self.fc2(h))

    def logits_t(self, x: Tensor) -> Tensor:
        return self.head(self.features_t(x)).reshape(-1)

    def extract_features(self, images: np.ndarray) -> np.ndarray:
        with no_grad():
            return self.features_t(Tensor(np.asarray(images, dtype=np.float64))).data

    def predict_proba(self, images: np.ndarray) -> np.ndarray:
        with no_grad():
            logits = self.logits_t(Tensor(np.asarray(images, dtype=np.float64))).data
        return nc.tensor._sigmoid_np(logits)

    def reinit_head(self, rng: RngStream) -> None:
        self.head = Linear(self.feature_dim, 1, rng)


def bce_loss(logits: Tensor, labels: np.ndarray, weights: tuple[float, float] | None = None) -> Tensor:
    """Mean binary cross-entropy on logits, stabilized via softplus.

    softplus(x) - y*x == -[y log p + (1-y) log(1-p)] for p = sigmoid(x).
    """
    y = np.asarray(labels, dtype=np.float64)
    if logits.shape != y.shape:
        raise nc.ShapeError(f"logits {logits.shape} vs labels {y.shape}")
    per_sample = softplus(logits) - logits * Tensor(y)
    if weights is not None:
        w = np.where(y == 1, weights[1], weights[0])
        per_sample = per_sample * Tensor(w)
    return per_sample.mean()


@dataclass
class TrainRegime:
    loss: str = "bce"  # bce | weighted_bce
    class_weights: tuple[float, float] | None = None  # None => inverse frequency
    sampler: SamplerSpec = field(default_factory=SamplerSpec)
    lr: float = 1e-3
    iterations: int = 1500
    batch: int = 32
    eval_every: int = 100

    def __post_init__(self):
        if self.loss not in ("bce", "weighted_bce"):
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.loss == "weighted_bce" and self.class_weights is not None and min(self.class_weights) <= 0:
            raise ValueError("class weights must be positive")


@dataclass
class HistoryRow:
    iteration: int
    loss: float
    val_sens: float
    val_spec: float
    val_hm: float
    val_auc: float


def _resolved_weights(regime: TrainRegime, ds: LabeledDataset) -> tuple[float, float] | None:
    if regime.loss != "weighted_bce":
        return None
    return regime.class_weights if regime.class_weights is not None else class_weights(ds)


def train_classifier(
    model: ClassifierModel,
    ds: LabeledDataset,
    regime: TrainRegime,
    rng: RngStream,
    val_ds: LabeledDataset | None = None,
    params: list[nc.Parameter] | None = None,
) -> list[HistoryRow]:
    """Train in place; keeps the best-validation-harmonic-mean checkpoint."""
    if len(ds) == 0:
        raise ValueError("dataset must be nonempty")
    weights = _resolved_weights(regime, ds)
    sampler = IndexSampler(regime.sampler, ds, rng.split("sampler"))
    params = model.parameters() if params is None else params

    history: list[HistoryRow] = []
    best_hm = -np.inf
    best_state = None

    def evaluate(it, loss_val):
        nonlocal best_hm, best_state
        if val_ds is None or len(val_ds) == 0:
            return
        rep = M.evaluate_probs(model.predict_proba(val_ds.images), val_ds.labels)
        history.append(HistoryRow(it, loss_val, rep.sensitivity, rep.specificity, rep.harmonic_mean, rep.auc))
        hm = rep.harmonic_mean if np.isfinite(rep.harmonic_mean) else -np.inf
        if hm >= best_hm:
            best_hm = hm
            best_state = [(p, p.tensor.data.copy()) for p in model.parameters()]

    for i in range(regime.iterations):
        idx = sampler.draw(regime.batch)
        x = Tensor(ds.images[idx])
        try:
            logits = model.logits_t(x)
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

    if best_state is not None:
        for p, data in best_state:
            p.tensor.data[...] = data
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
    """Freeze features, re-initialize the head, retrain it class-balanced.

    Frozen means ``requires_grad=False`` for the duration: the backward pass
    stops at the head, and no gradient is left on the feature parameters."""
    if not model.trained:
        warnings.warn("multi_stage_retrain called on an untrained model; proceeding")
    model.reinit_head(rng.split("head-reinit"))
    regime = TrainRegime(
        loss="bce",
        sampler=SamplerSpec("class_weighted"),
        lr=lr,
        iterations=iterations,
        batch=batch,
    )
    features = model.feature_parameters()
    for p in features:
        p.tensor.requires_grad = False
    try:
        return train_classifier(model, ds, regime, rng.split("stage2"), val_ds=val_ds, params=model.head.parameters())
    finally:
        for p in features:
            p.tensor.requires_grad = True


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
