"""DiffuPT orchestration and the comparison/ablation experiments.

The method: train a conditional latent diffusion model on the imbalanced
real set, generate a class-balanced synthetic set filtered by the
already-trained baseline classifier, pretrain a fresh classifier on it
(model-selected against the real validation set), then fine-tune on the
real set at a tenth of the learning rate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import metrics as M
from .classifier import ClassifierModel, TrainRegime, embedding_statistics, multi_stage_retrain, train_classifier
from .data import SYNTHETIC, LabeledDataset, SamplerSpec, class_dataset, concat_datasets, smote_oversample
from .diffusion import (
    DenoiserModel,
    DiffusionTrainConfig,
    GuidanceSpec,
    NoiseSchedule,
    SampleMethod,
    UNetDenoiser,
    linear_schedule,
    sample,
    train_diffusion,
)
from .latentae import AeTrainConfig, Autoencoder, encode, latent_diffusion_sample, train_autoencoder
from .numcore import RngStream

class GenerationShortfallError(RuntimeError):
    """Attempt budget exhausted before the target counts were reached."""

    def __init__(self, msg: str, partial: LabeledDataset, stats: "GenerationStats"):
        super().__init__(msg)
        self.partial = partial
        self.stats = stats


@dataclass
class GenerationPlan:
    target_counts: tuple[int, int] = (1200, 1200)  # (n_negative, n_positive)
    guidance: GuidanceSpec = field(default_factory=GuidanceSpec)
    method: SampleMethod = field(default_factory=SampleMethod)
    filter: str = "baseline"  # none | baseline
    filter_threshold: float = 0.5
    max_attempts_factor: float = 5.0
    gen_batch: int = 256

    def __post_init__(self):
        if min(self.target_counts) < 0:
            raise ValueError("target counts must be >= 0")
        if self.filter not in ("none", "baseline"):
            raise ValueError(f"unknown filter {self.filter!r}")
        if not (0.0 < self.filter_threshold < 1.0):
            raise ValueError("filter threshold must lie in (0,1)")
        if self.max_attempts_factor < 1.0:
            raise ValueError("max_attempts_factor must be >= 1")


@dataclass
class GenerationStats:
    requested: tuple[int, int]
    attempted: tuple[int, int] = (0, 0)
    kept: tuple[int, int] = (0, 0)
    sampling_seconds: float = 0.0
    model_pair_calls: int = 0

    @property
    def rejected(self) -> tuple[int, int]:
        return (self.attempted[0] - self.kept[0], self.attempted[1] - self.kept[1])


def filter_samples(samples: np.ndarray, target_class: int, baseline: ClassifierModel, threshold: float) -> np.ndarray:
    """Keep samples the baseline assigns to the target class at >= threshold."""
    samples = np.asarray(samples)
    if samples.shape[0] == 0:
        return samples
    p = baseline.predict_proba(samples)
    p_target = p if target_class == 1 else 1.0 - p
    return samples[p_target >= threshold]


# ---------------------------------------------------------------------------
# generative stack
# ---------------------------------------------------------------------------


@dataclass
class StackConfig:
    image_size: int = 16
    ae_base_channels: int = 16
    latent_channels: int = 4
    ae: AeTrainConfig = field(default_factory=AeTrainConfig)
    timesteps: int = 1000
    beta_start: float = 1e-4
    beta_end: float = 0.02
    unet_base_channels: int = 16
    emb_dim: int = 32
    diffusion: DiffusionTrainConfig = field(default_factory=DiffusionTrainConfig)


@dataclass
class GenerativeStack:
    ae: Autoencoder | None
    denoiser: DenoiserModel
    sched: NoiseSchedule

    @property
    def image_shape(self) -> tuple[int, ...]:
        return tuple(self.denoiser.data_shape if self.ae is None else self.ae.image_shape)

    def sample_class(self, n: int, y: int, guidance: GuidanceSpec, method: SampleMethod, rng: RngStream) -> np.ndarray:
        if self.ae is None:
            return sample(self.denoiser, n, y, guidance, method, self.sched, rng)
        return latent_diffusion_sample(self.ae, self.denoiser, n, y, guidance, method, self.sched, rng)


def train_generative_stack(train_ds: LabeledDataset, cfg: StackConfig, rng: RngStream) -> GenerativeStack:
    """Autoencoder, latent calibration, then conditional latent denoiser."""
    ae = Autoencoder(cfg.image_size, train_ds.images.shape[1], cfg.ae_base_channels, cfg.latent_channels, rng.split("ae-init"))
    train_autoencoder(ae, train_ds, cfg.ae, rng.split("ae-train"))
    latents = encode(ae, train_ds.images, normalized=True)
    sched = linear_schedule(cfg.timesteps, cfg.beta_start, cfg.beta_end)
    denoiser = UNetDenoiser(ae.latent_shape, cfg.unet_base_channels, rng.split("unet-init"), emb_dim=cfg.emb_dim)
    train_diffusion(denoiser, latents, train_ds.labels.astype(np.int64), cfg.diffusion, sched, rng.split("unet-train"))
    return GenerativeStack(ae=ae, denoiser=denoiser, sched=sched)


def generate_balanced_dataset(
    stack: GenerativeStack,
    plan: GenerationPlan,
    baseline: ClassifierModel | None,
    rng: RngStream,
) -> tuple[LabeledDataset, GenerationStats]:
    """Generate per class until the plan's counts are met or budget runs out."""
    if plan.filter == "baseline" and baseline is None:
        raise ValueError("plan filters on the baseline classifier but none was given")
    empty = np.zeros((0,) + stack.image_shape)
    kept_images = [[empty], [empty]]
    kept_counts = [0, 0]
    attempted = [0, 0]
    t0 = time.perf_counter()
    pair_calls = 0
    for cls in (0, 1):
        target = plan.target_counts[cls]
        budget = int(np.ceil(plan.max_attempts_factor * target))
        crng = rng.split(f"gen-class{cls}")
        while kept_counts[cls] < target and attempted[cls] < budget:
            n = min(plan.gen_batch, budget - attempted[cls])
            batch = stack.sample_class(n, cls, plan.guidance, plan.method, crng)
            attempted[cls] += n
            pair_calls += (plan.method.steps if plan.method.kind == "ddim" else stack.sched.T)
            if plan.filter == "baseline":
                batch = filter_samples(batch, cls, baseline, plan.filter_threshold)
            take = min(len(batch), target - kept_counts[cls])
            kept_images[cls].append(batch[:take])
            kept_counts[cls] += take
    stats = GenerationStats(
        requested=tuple(plan.target_counts),
        attempted=tuple(attempted),
        kept=tuple(kept_counts),
        sampling_seconds=time.perf_counter() - t0,
        model_pair_calls=pair_calls,
    )

    ds = class_dataset([np.concatenate(kept) for kept in kept_images], SYNTHETIC)
    if kept_counts[0] < plan.target_counts[0] or kept_counts[1] < plan.target_counts[1]:
        raise GenerationShortfallError(
            f"generation shortfall: kept {tuple(kept_counts)} of requested {plan.target_counts} "
            f"after {tuple(attempted)} attempts",
            partial=ds,
            stats=stats,
        )
    return ds, stats


# ---------------------------------------------------------------------------
# DiffuPT
# ---------------------------------------------------------------------------


@dataclass
class DiffuPTConfig:
    pretrain: TrainRegime = field(default_factory=lambda: TrainRegime(iterations=1500, lr=1e-3))
    finetune: TrainRegime = field(default_factory=lambda: TrainRegime(iterations=600, lr=1e-4))
    generation: GenerationPlan = field(default_factory=GenerationPlan)

    def __post_init__(self):
        if self.finetune.lr >= self.pretrain.lr:
            raise ValueError(
                f"finetune lr must be below pretrain lr, got {self.finetune.lr} >= {self.pretrain.lr}"
            )


@dataclass
class Splits:
    train: LabeledDataset
    val: LabeledDataset
    test: LabeledDataset


@dataclass
class MethodResult:
    method: str
    val: M.EvalReport
    test: M.EvalReport


@dataclass
class DiffuPTResult:
    model: ClassifierModel
    pretrain_val: M.EvalReport
    val: M.EvalReport
    test: M.EvalReport
    synthetic: LabeledDataset
    generation_stats: GenerationStats


@dataclass
class ExperimentContext:
    """Shared ingredients for the comparison and ablation experiments."""

    clf_channels: tuple[int, ...] = (8, 16)
    clf_feature_dim: int = 16
    regime: TrainRegime = field(default_factory=TrainRegime)
    stack_cfg: StackConfig = field(default_factory=StackConfig)
    diffupt_cfg: DiffuPTConfig = field(default_factory=DiffuPTConfig)
    stack: GenerativeStack | None = None
    baseline: ClassifierModel | None = None
    _trained_on: Splits | None = field(default=None, init=False, repr=False)

    def new_classifier(self, splits: Splits, rng: RngStream) -> ClassifierModel:
        shape = splits.train.images.shape[1:]
        return ClassifierModel(shape, rng, conv_channels=self.clf_channels, feature_dim=self.clf_feature_dim)

    def _check_splits(self, splits: Splits) -> None:
        """The cached baseline and stack belong to the first splits they were asked for."""
        if self._trained_on is None:
            self._trained_on = splits
        elif splits is not self._trained_on:
            raise ValueError("this context's baseline and stack belong to other splits; use a new ExperimentContext")

    def ensure_baseline(self, splits: Splits, rng: RngStream) -> ClassifierModel:
        self._check_splits(splits)
        if self.baseline is None:
            model = self.new_classifier(splits, rng.split("baseline-init"))
            train_classifier(model, splits.train, self.regime, rng.split("baseline-train"), val_ds=splits.val)
            self.baseline = model
        return self.baseline

    def ensure_stack(self, splits: Splits, rng: RngStream) -> GenerativeStack:
        self._check_splits(splits)
        if self.stack is None:
            self.stack = train_generative_stack(splits.train, self.stack_cfg, rng.split("stack"))
        return self.stack


def _evaluate(model: ClassifierModel, ds: LabeledDataset) -> M.EvalReport:
    return M.evaluate_probs(model.predict_proba(ds.images), ds.labels, subgroups=ds.subgroup)


def diffupt_run(
    splits: Splits,
    cfg: DiffuPTConfig,
    rng: RngStream,
    ctx: ExperimentContext | None = None,
    synthetic: LabeledDataset | None = None,
) -> DiffuPTResult:
    """Full method: generate, pretrain on synthetic, fine-tune on real."""
    ctx = ctx or ExperimentContext(diffupt_cfg=cfg)
    baseline = ctx.ensure_baseline(splits, rng)
    if synthetic is None:
        stack = ctx.ensure_stack(splits, rng)
        synthetic, stats = generate_balanced_dataset(stack, cfg.generation, baseline, rng.split("generate"))
    else:
        stats = GenerationStats(requested=cfg.generation.target_counts, kept=synthetic.class_counts)

    model = ctx.new_classifier(splits, rng.split("diffupt-init"))
    if len(synthetic):
        train_classifier(model, synthetic, cfg.pretrain, rng.split("pretrain"), val_ds=splits.val)
    pretrain_val = _evaluate(model, splits.val)
    train_classifier(model, splits.train, cfg.finetune, rng.split("finetune"), val_ds=splits.val)

    return DiffuPTResult(
        model=model,
        pretrain_val=pretrain_val,
        val=_evaluate(model, splits.val),
        test=_evaluate(model, splits.test),
        synthetic=synthetic,
        generation_stats=stats,
    )


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


# A runner trains one method's model(s) and returns its (val, test) reports;
# ``count`` is N of the label gen_augment(N) and None for every other method.
Runner = Callable[[Splits, ExperimentContext, RngStream, int | None], tuple[M.EvalReport, M.EvalReport]]


def _smote_minority(splits: Splits, ctx: ExperimentContext, rng: RngStream, count: int | None) -> LabeledDataset:
    """The real set plus SMOTE minority samples up to the majority count."""
    train = splits.train
    n_neg, n_pos = train.class_counts
    minority = train.images[train.labels == 1]
    new = smote_oversample(minority, k=min(5, len(minority) - 1), n_new=max(0, n_neg - n_pos), rng=rng.split("smote"))
    return concat_datasets([train, class_dataset([new[:0], new], SYNTHETIC)])


def _generated_minority(splits: Splits, ctx: ExperimentContext, rng: RngStream, count: int | None) -> LabeledDataset:
    """The real set plus ``count`` generated, baseline-filtered minority samples."""
    if count == 0:
        return splits.train
    stack = ctx.ensure_stack(splits, rng)
    baseline = ctx.ensure_baseline(splits, rng)
    plan = replace(ctx.diffupt_cfg.generation, target_counts=(0, count))
    synth, _ = generate_balanced_dataset(stack, plan, baseline, rng.split("augment-gen"))
    return concat_datasets([splits.train, synth])


def _one_classifier(train_set: Callable[..., LabeledDataset] | None = None, **regime_changes) -> Runner:
    """Train one fresh classifier on ``train_set`` (default: the real training
    set) under the context's regime with ``regime_changes`` applied."""

    def run(splits: Splits, ctx: ExperimentContext, rng: RngStream, count: int | None):
        train = splits.train if train_set is None else train_set(splits, ctx, rng, count)
        model = ctx.new_classifier(splits, rng.split("init"))
        train_classifier(model, train, replace(ctx.regime, **regime_changes), rng.split("train"), val_ds=splits.val)
        return _evaluate(model, splits.val), _evaluate(model, splits.test)

    return run


def _multi_stage(splits: Splits, ctx: ExperimentContext, rng: RngStream, count: int | None):
    """Decoupled retraining (Kang et al. 2020): train, then retrain only the head class-balanced."""
    regime = ctx.regime
    model = ctx.new_classifier(splits, rng.split("init"))
    train_classifier(model, splits.train, regime, rng.split("stage1"), val_ds=splits.val)
    multi_stage_retrain(model, splits.train, rng.split("stage2"), val_ds=splits.val,
                        iterations=max(1, regime.iterations // 2), lr=regime.lr, batch=regime.batch)
    return _evaluate(model, splits.val), _evaluate(model, splits.test)


def _diffupt(splits: Splits, ctx: ExperimentContext, rng: RngStream, count: int | None):
    res = diffupt_run(splits, ctx.diffupt_cfg, rng, ctx=ctx)
    return res.val, res.test


# class_weights=None weighs the loss by the inverse class frequency of the training set
_WEIGHTED_CE = {"loss": "weighted_bce", "class_weights": None}
_BALANCED = SamplerSpec("class_weighted")

METHODS: dict[str, Runner] = {
    "normal": _one_classifier(),
    "weighted_ce": _one_classifier(**_WEIGHTED_CE),
    "weighted_sampler": _one_classifier(sampler=_BALANCED),
    "weighted_ce+sampler": _one_classifier(**_WEIGHTED_CE, sampler=_BALANCED),
    "multi_stage+sampler": _multi_stage,
    "smote_augment": _one_classifier(_smote_minority, sampler=SamplerSpec("uniform")),
    "gen_augment": _one_classifier(_generated_minority, sampler=_BALANCED),  # labelled gen_augment(N)
    "diffupt": _diffupt,
}


def _method(label: str) -> tuple[Runner, int | None]:
    """The runner for ``label`` and gen_augment's count; ValueError for an unknown label."""
    if label.startswith("gen_augment(") and label.endswith(")"):
        return METHODS["gen_augment"], int(label[len("gen_augment(") : -1])
    if label == "gen_augment" or label not in METHODS:
        raise ValueError(f"unknown method label {label!r}")
    return METHODS[label], None


def run_method(label: str, splits: Splits, ctx: ExperimentContext, rng: RngStream) -> MethodResult:
    """Train and evaluate one imbalance-mitigation method."""
    run, count = _method(label)
    return MethodResult(label, *run(splits, ctx, rng, count))


def run_comparison(splits: Splits, methods: list[str], rng: RngStream, ctx: ExperimentContext | None = None) -> list[MethodResult]:
    """One row per method, trained on shared splits with per-method streams."""
    ctx = ctx or ExperimentContext()
    for label in methods:
        _method(label)  # fail fast on unknown labels
    return [run_method(label, splits, ctx, rng.split(label)) for label in methods]


def augmentation_sweep(
    splits: Splits,
    counts: list[int],
    rng: RngStream,
    ctx: ExperimentContext | None = None,
) -> list[tuple[int, MethodResult]]:
    """Harmonic mean vs number of added filtered synthetic minority samples.

    Count 0 is exactly the weighted-sampler baseline row (same stream)."""
    ctx = ctx or ExperimentContext()
    out = []
    for count in counts:
        label = "weighted_sampler" if count == 0 else f"gen_augment({count})"
        res = run_method(label, splits, ctx, rng.split(label))
        out.append((count, res))
    return out


@dataclass
class DistributionRow:
    label: str
    requested: tuple[int, int]
    generated: tuple[int, int]
    report: M.EvalReport
    embedding: dict[str, float]


def distribution_ablation(
    splits: Splits,
    distributions: list[tuple[int, int]],
    total: int,
    rng: RngStream,
    ctx: ExperimentContext | None = None,
) -> list[DistributionRow]:
    """Pretrain-only models on synthetic sets of varying class composition."""
    ctx = ctx or ExperimentContext()
    stack = ctx.ensure_stack(splits, rng)
    baseline = ctx.ensure_baseline(splits, rng)
    rows = []
    for pos_pct, neg_pct in distributions:
        if pos_pct + neg_pct != 100:
            raise ValueError(f"distribution must sum to 100, got {pos_pct}-{neg_pct}")
        n_pos = round(total * pos_pct / 100)
        plan = replace(ctx.diffupt_cfg.generation, target_counts=(total - n_pos, n_pos))
        drng = rng.split(f"dist-{pos_pct}-{neg_pct}")
        synth, _ = generate_balanced_dataset(stack, plan, baseline, drng.split("gen"))
        model = ctx.new_classifier(splits, drng.split("init"))
        train_classifier(model, synth, ctx.diffupt_cfg.pretrain, drng.split("pretrain"), val_ds=splits.val)
        rows.append(
            DistributionRow(
                label=f"{pos_pct}-{neg_pct}",
                requested=plan.target_counts,
                generated=synth.class_counts,
                report=_evaluate(model, splits.val),
                embedding=embedding_statistics(model, splits.val),
            )
        )
    return rows


@dataclass
class FilteringRow:
    label: str
    synthetic: LabeledDataset
    val: M.EvalReport
    test: M.EvalReport


def filtering_ablation(
    splits: Splits,
    rng: RngStream,
    ctx: ExperimentContext | None = None,
) -> list[FilteringRow]:
    """Same pipeline twice from one candidate pool: all samples vs filtered."""
    ctx = ctx or ExperimentContext()
    stack = ctx.ensure_stack(splits, rng)
    baseline = ctx.ensure_baseline(splits, rng)
    plan = ctx.diffupt_cfg.generation
    # one shared candidate pool per class, drawn once
    gen_rng = rng.split("shared-pool")
    pools = []
    for cls in (0, 1):
        budget = int(np.ceil(plan.max_attempts_factor * plan.target_counts[cls]))
        pools.append(stack.sample_class(budget, cls, plan.guidance, plan.method, gen_rng.split(f"class{cls}")))

    filtered = [filter_samples(pool, cls, baseline, plan.filter_threshold) for cls, pool in enumerate(pools)]

    rows = []
    for label, kept in (("all_samples", pools), ("filtered_samples", filtered)):
        synth = class_dataset([k[:n] for k, n in zip(kept, plan.target_counts)], SYNTHETIC)
        res = diffupt_run(splits, ctx.diffupt_cfg, rng.split("shared-downstream"), ctx=ctx, synthetic=synth)
        rows.append(FilteringRow(label=label, synthetic=synth, val=res.val, test=res.test))
    return rows


def generation_quality_metrics(
    stack_label: str,
    synthetic: LabeledDataset,
    real: LabeledDataset,
    scorer: ClassifierModel,
    nfe: int,
    sampling_seconds: float,
) -> dict:
    """FID/KID/IS analogs over the workbench classifier's features."""
    feats_real = scorer.extract_features(real.images)
    feats_synth = scorer.extract_features(synthetic.images)
    probs = scorer.predict_proba(synthetic.images)
    return {
        "model": stack_label,
        "nfe": nfe,
        "fid_like": M.frechet_feature_distance(feats_real, feats_synth),
        "kid_like": M.kernel_feature_distance(feats_real, feats_synth),
        "is_like": M.inception_score_analog(M.binary_class_probs(probs)),
        "sampling_time_s": sampling_seconds,
    }
