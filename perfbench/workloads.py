"""The benchmark's workloads: inputs made from a seed, one timed unit, output checks.

Every workload builds its real data with ``generate_synth_fundus`` and
``stratified_split(..., (0.7, 0.15, 0.15), test_minority_fraction=0.2)``
and then drives the program only through public functions of ``pipeline``,
``classifier``, ``data``, ``diffusion``, ``latentae`` and ``metrics``.

* ``diffupt`` runs the whole method (baseline, autoencoder, latent UNet,
  DDIM+CFG sampling behind the baseline filter, pretrain, fine-tune), so
  every layer counts at its real share.
* ``compare`` trains six imbalance baselines on a larger real set: the same
  convolution at batch 32 with backward passes, Adam, the samplers and SMOTE,
  with no diffusion at all.

A generation shortfall is not an error here: the partial set and its stats
are used, and the unmet share is reported as ``failed_frac``. The attempt
budget of each class is exactly one generation batch, so every seed samples
the same number of images; the filter decides how many are kept, not how much
work is done.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from diffupt import pipeline as P
from diffupt.classifier import ClassifierModel, TrainRegime
from diffupt.data import SYNTHETIC, LabeledDataset, SynthFundusConfig, generate_synth_fundus, stratified_split
from diffupt.diffusion import DiffusionTrainConfig, GuidanceSpec, SampleMethod
from diffupt.latentae import AeTrainConfig
from diffupt.numcore import RngStream

COMPARE_METHODS = (
    "normal",
    "weighted_ce",
    "weighted_sampler",
    "weighted_ce+sampler",
    "multi_stage+sampler",
    "smote_augment",
)


@dataclass(frozen=True)
class Sizes:
    """Every size a workload uses; ``FULL`` is the benchmark, ``TINY`` the smoke test."""

    real: tuple[int, int] = (600, 120)  # (negative, positive) for diffupt
    compare_real: tuple[int, int] = (2000, 400)
    baseline_iters: int = 300
    ae_iters: int = 75
    unet_iters: int = 75
    ddim_steps: int = 10
    guidance_w: float = 3.0
    diffupt_per_class: int = 100
    gen_batch: int = 250  # also each class's whole attempt budget
    pretrain_iters: int = 300
    finetune_iters: int = 150
    finetune_lr: float = 1e-4
    compare_iters: int = 300


FULL = Sizes()
TINY = Sizes(
    real=(60, 24),
    compare_real=(60, 24),
    baseline_iters=4,
    ae_iters=2,
    unet_iters=2,
    ddim_steps=2,
    diffupt_per_class=3,
    gen_batch=6,
    pretrain_iters=2,
    finetune_iters=2,
    compare_iters=3,
)


def real_splits(seed: int, counts: tuple[int, int]) -> P.Splits:
    ds = generate_synth_fundus(SynthFundusConfig(seed=seed), *counts)
    train, val, test = stratified_split(ds, (0.7, 0.15, 0.15), test_minority_fraction=0.2, seed=seed)
    return P.Splits(train, val, test)


class RecordingContext(P.ExperimentContext):
    """Experiment context that keeps every classifier it builds, so the
    benchmark can hash the final weights of runs that return only reports."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.models: list[ClassifierModel] = []

    def new_classifier(self, splits, rng):
        model = super().new_classifier(splits, rng)
        self.models.append(model)
        return model


def make_context(sz: Sizes) -> RecordingContext:
    plan = P.GenerationPlan(
        target_counts=(sz.diffupt_per_class, sz.diffupt_per_class),
        guidance=GuidanceSpec(w=sz.guidance_w),
        method=SampleMethod("ddim", steps=sz.ddim_steps),
        filter="baseline",
        max_attempts_factor=sz.gen_batch / sz.diffupt_per_class,
        gen_batch=sz.gen_batch,
    )
    assert int(np.ceil(plan.max_attempts_factor * sz.diffupt_per_class)) == sz.gen_batch
    return RecordingContext(
        regime=TrainRegime(iterations=sz.baseline_iters),
        stack_cfg=P.StackConfig(
            ae=AeTrainConfig(iterations=sz.ae_iters),
            diffusion=DiffusionTrainConfig(iterations=sz.unet_iters),
        ),
        diffupt_cfg=P.DiffuPTConfig(
            pretrain=TrainRegime(iterations=sz.pretrain_iters, lr=1e-3),
            finetune=TrainRegime(iterations=sz.finetune_iters, lr=sz.finetune_lr),
            generation=plan,
        ),
    )


def digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()[:16]


@dataclass
class Outcome:
    """What one timed unit produced, reduced to numbers, hashes and checks."""

    metrics: dict[str, float]  # end-to-end values this unit determines (not timings)
    requested: int  # synthetic images (or method rows) asked for
    unmet: int  # of those, how many were not delivered
    weight_hash: str
    info: dict
    errors: list[str]


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def check_synthetic(synth: LabeledDataset, kept: tuple[int, int], baseline, threshold: float) -> list[str]:
    errors = []
    labels = np.concatenate([np.zeros(kept[0], np.int8), np.ones(kept[1], np.int8)])
    if synth.labels.shape != labels.shape or np.any(synth.labels != labels):
        errors.append(f"synthetic labels are not {kept[0]} negatives then {kept[1]} positives")
    if np.any(synth.provenance != SYNTHETIC):
        errors.append("synthetic images not all marked SYNTHETIC")
    if len(synth) and not (np.all(np.isfinite(synth.images)) and synth.images.min() >= 0.0 and synth.images.max() <= 1.0):
        errors.append("kept images outside [0,1]")
    if len(synth) and baseline is not None:
        p = baseline.predict_proba(synth.images)
        p_target = np.where(synth.labels == 1, p, 1.0 - p)
        bad = int(np.sum(p_target < threshold))
        if bad:
            errors.append(f"{bad} kept images fail the baseline filter on recomputation")
    return errors


def check_finite(values: dict[str, float]) -> list[str]:
    return [f"{k} is not finite ({v})" for k, v in values.items() if not np.isfinite(v)]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass
class Workload:
    setup: Callable[[int, Sizes], object]
    run: Callable[[object], Outcome]
    iterations: Callable[[Sizes], int]  # configured training iterations in one timed unit


@dataclass
class RealState:
    seed: int
    sz: Sizes
    splits: P.Splits


def setup_real(seed: int, sz: Sizes) -> RealState:
    return RealState(seed, sz, real_splits(seed, sz.real))


def setup_compare(seed: int, sz: Sizes) -> RealState:
    return RealState(seed, sz, real_splits(seed, sz.compare_real))


def run_diffupt(st: RealState) -> Outcome:
    return diffupt_outcome(st.splits, make_context(st.sz), RngStream(st.seed))


def diffupt_outcome(splits: P.Splits, ctx: RecordingContext, rng: RngStream) -> Outcome:
    cfg = ctx.diffupt_cfg
    try:
        res = P.diffupt_run(splits, cfg, rng, ctx=ctx)
        stats, short = res.generation_stats, False
    except P.GenerationShortfallError as e:
        # resume exactly where diffupt_run stopped: same context (baseline and
        # stack already trained), same streams, the partial synthetic set
        res = P.diffupt_run(splits, cfg, rng, ctx=ctx, synthetic=e.partial)
        stats, short = e.stats, True
    quality = {
        "val_hm": res.val.harmonic_mean,
        "test_hm": res.test.harmonic_mean,
        "test_auc": res.test.auc,
    }
    errors = check_synthetic(res.synthetic, stats.kept, ctx.baseline, cfg.generation.filter_threshold)
    errors += check_finite(quality)
    requested = sum(stats.requested)
    return Outcome(
        metrics=quality,
        requested=requested,
        unmet=requested - sum(stats.kept),
        weight_hash=digest(res.model.weight_bytes()),
        info={"attempted": stats.attempted, "kept": stats.kept, "shortfall": short},
        errors=errors,
    )


def run_compare(st: RealState) -> Outcome:
    ctx = RecordingContext(regime=TrainRegime(iterations=st.sz.compare_iters))
    rows = P.run_comparison(st.splits, list(COMPARE_METHODS), RngStream(st.seed), ctx=ctx)
    per_row = {
        f"{r.method}.{k}": v
        for r in rows
        for k, v in (("val_hm", r.val.harmonic_mean), ("test_hm", r.test.harmonic_mean), ("test_auc", r.test.auc))
    }
    quality = {
        "val_hm": float(np.mean([r.val.harmonic_mean for r in rows])),
        "test_hm": float(np.mean([r.test.harmonic_mean for r in rows])),
        "test_auc": float(np.mean([r.test.auc for r in rows])),
    }
    return Outcome(
        metrics=quality,
        requested=len(COMPARE_METHODS),
        unmet=0,  # run_comparison returns every row or raises
        weight_hash=digest(*(m.weight_bytes() for m in ctx.models)),
        info={"rows": {k: round(v, 4) for k, v in per_row.items()}},
        errors=check_finite(per_row),
    )


def compare_iterations(sz: Sizes) -> int:
    # multi_stage+sampler retrains its head for half the iterations after stage one
    return len(COMPARE_METHODS) * sz.compare_iters + max(1, sz.compare_iters // 2)


# Why each workload exists is stated in BENCHMARK.json and README.md.
WORKLOADS = {
    "diffupt": Workload(
        setup_real,
        run_diffupt,
        lambda sz: sz.baseline_iters + sz.ae_iters + sz.unet_iters + sz.pretrain_iters + sz.finetune_iters,
    ),
    "compare": Workload(setup_compare, run_compare, compare_iterations),
}
