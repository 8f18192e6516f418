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

import numpy as np

from . import metrics as M
from .classifier import ClassifierModel, TrainRegime, embedding_statistics, multi_stage_retrain, train_classifier
from .data import (
    REAL,
    SYNTHETIC,
    LabeledDataset,
    SamplerSpec,
    class_weights,
    concat_datasets,
    smote_oversample,
)
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

KNOWN_METHODS = (
    "normal",
    "weighted_ce",
    "weighted_sampler",
    "weighted_ce+sampler",
    "multi_stage+sampler",
    "smote_augment",
    "gen_augment",
    "diffupt",
)


class GenerationShortfallError(RuntimeError):
    """Attempt budget exhausted before the target counts were reached."""

    def __init__(self, msg: str, partial: LabeledDataset, stats: "GenerationStats"):
        super().__init__(msg)
        self.partial = partial
        self.stats = stats


@dataclass
class GenerationPlan:
    target_counts: tuple[int, int] = (1200, 1200)  # (n_negative, n_positive)
    distribution_label: str = "50-50"
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


@dataclass
class FilterStats:
    kept: int
    rejected: int

    @property
    def rejection_rate(self) -> float:
        total = self.kept + self.rejected
        return self.rejected / total if total else 0.0


def filter_samples(
    samples: np.ndarray,
    target_class: int,
    baseline: ClassifierModel,
    threshold: float,
) -> tuple[np.ndarray, FilterStats]:
    """Keep samples the baseline assigns to the target class at >= threshold."""
    samples = np.asarray(samples)
    if samples.shape[0] == 0:
        return samples, FilterStats(0, 0)
    p = baseline.predict_proba(samples)
    p_target = p if target_class == 1 else 1.0 - p
    keep = p_target >= threshold
    return samples[keep], FilterStats(int(keep.sum()), int((~keep).sum()))


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
    stats = GenerationStats(requested=tuple(plan.target_counts))
    kept_images: list[list[np.ndarray]] = [[], []]
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
                batch, _ = filter_samples(batch, cls, baseline, plan.filter_threshold)
            take = min(len(batch), target - kept_counts[cls])
            if take:
                kept_images[cls].append(batch[:take])
                kept_counts[cls] += take
    stats.attempted = tuple(attempted)
    stats.kept = tuple(kept_counts)
    stats.sampling_seconds = time.perf_counter() - t0
    stats.model_pair_calls = pair_calls

    images = [np.concatenate(kept_images[c]) if kept_images[c] else None for c in (0, 1)]
    shape = None
    for im in images:
        if im is not None:
            shape = im.shape[1:]
    if shape is None:
        if stack.ae is not None:
            shape = tuple(stack.ae.image_shape)
        else:
            shape = tuple(stack.denoiser.data_shape)
    parts = []
    for c in (0, 1):
        if images[c] is None:
            continue
        parts.append(
            LabeledDataset(
                images=images[c],
                labels=np.full(len(images[c]), c, dtype=np.int8),
                provenance=np.full(len(images[c]), SYNTHETIC, dtype=np.int8),
            )
        )
    ds = concat_datasets(parts) if parts else LabeledDataset(
        images=np.zeros((0,) + shape), labels=np.zeros(0, dtype=np.int8), provenance=np.zeros(0, dtype=np.int8)
    )
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

    def new_classifier(self, splits: Splits, rng: RngStream) -> ClassifierModel:
        shape = splits.train.images.shape[1:]
        return ClassifierModel(shape, rng, conv_channels=self.clf_channels, feature_dim=self.clf_feature_dim)

    def ensure_baseline(self, splits: Splits, rng: RngStream) -> ClassifierModel:
        if self.baseline is None:
            model = self.new_classifier(splits, rng.split("baseline-init"))
            train_classifier(model, splits.train, self.regime, rng.split("baseline-train"), val_ds=splits.val)
            self.baseline = model
        return self.baseline

    def ensure_stack(self, splits: Splits, rng: RngStream) -> GenerativeStack:
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


def _parse_method(label: str) -> tuple[str, int | None]:
    if label.startswith("gen_augment(") and label.endswith(")"):
        return "gen_augment", int(label[len("gen_augment(") : -1])
    if label in KNOWN_METHODS and label != "gen_augment":
        return label, None
    raise ValueError(f"unknown method label {label!r}")


def _augmented_with_synthetic_minority(
    splits: Splits, ctx: ExperimentContext, count: int, rng: RngStream
) -> LabeledDataset:
    if count == 0:
        return splits.train
    stack = ctx.ensure_stack(splits, rng)
    baseline = ctx.ensure_baseline(splits, rng)
    plan = replace(ctx.diffupt_cfg.generation, target_counts=(0, count))
    synth, _ = generate_balanced_dataset(stack, plan, baseline, rng.split("augment-gen"))
    return concat_datasets([splits.train, synth])


def run_method(label: str, splits: Splits, ctx: ExperimentContext, rng: RngStream) -> MethodResult:
    """Train and evaluate one imbalance-mitigation method."""
    kind, gen_n = _parse_method(label)
    regime = ctx.regime

    if kind == "diffupt":
        res = diffupt_run(splits, ctx.diffupt_cfg, rng, ctx=ctx)
        return MethodResult(label, res.val, res.test)

    if kind == "multi_stage+sampler":
        model = ctx.new_classifier(splits, rng.split("init"))
        train_classifier(model, splits.train, regime, rng.split("stage1"), val_ds=splits.val)
        multi_stage_retrain(model, splits.train, rng.split("stage2"), val_ds=splits.val,
                            iterations=max(1, regime.iterations // 2), lr=regime.lr, batch=regime.batch)
        return MethodResult(label, _evaluate(model, splits.val), _evaluate(model, splits.test))

    train_ds = splits.train
    if kind == "smote_augment":
        n_neg, n_pos = train_ds.class_counts
        n_new = max(0, n_neg - n_pos)
        minority = train_ds.images[train_ds.labels == 1]
        new_imgs = smote_oversample(minority, k=min(5, len(minority) - 1), n_new=n_new, rng=rng.split("smote"))
        synth = LabeledDataset(
            images=new_imgs,
            labels=np.ones(len(new_imgs), dtype=np.int8),
            provenance=np.full(len(new_imgs), SYNTHETIC, dtype=np.int8),
        )
        train_ds = concat_datasets([train_ds, synth])
        regime = replace(regime, sampler=SamplerSpec("uniform"))
    elif kind == "gen_augment":
        train_ds = _augmented_with_synthetic_minority(splits, ctx, gen_n, rng)
        regime = replace(regime, sampler=SamplerSpec("class_weighted"))
    elif kind == "weighted_ce":
        regime = replace(regime, loss="weighted_bce", class_weights=class_weights(train_ds))
    elif kind == "weighted_sampler":
        regime = replace(regime, sampler=SamplerSpec("class_weighted"))
    elif kind == "weighted_ce+sampler":
        regime = replace(
            regime, loss="weighted_bce", class_weights=class_weights(train_ds), sampler=SamplerSpec("class_weighted")
        )

    model = ctx.new_classifier(splits, rng.split("init"))
    train_classifier(model, train_ds, regime, rng.split("train"), val_ds=splits.val)
    return MethodResult(label, _evaluate(model, splits.val), _evaluate(model, splits.test))


def run_comparison(splits: Splits, methods: list[str], rng: RngStream, ctx: ExperimentContext | None = None) -> list[MethodResult]:
    """One row per method, trained on shared splits with per-method streams."""
    ctx = ctx or ExperimentContext()
    for label in methods:
        _parse_method(label)  # fail fast on unknown labels
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
        plan = replace(ctx.diffupt_cfg.generation, target_counts=(total - n_pos, n_pos),
                       distribution_label=f"{pos_pct}-{neg_pct}")
        drng = rng.split(f"dist-{pos_pct}-{neg_pct}")
        synth, _ = generate_balanced_dataset(stack, plan, baseline, drng.split("gen"))
        model = ctx.new_classifier(splits, drng.split("init"))
        train_classifier(model, synth, ctx.diffupt_cfg.pretrain, drng.split("pretrain"), val_ds=splits.val)
        n_neg_gen, n_pos_gen = synth.class_counts
        rows.append(
            DistributionRow(
                label=f"{pos_pct}-{neg_pct}",
                requested=(total - n_pos, n_pos),
                generated=(n_neg_gen, n_pos_gen),
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

    def build(filtered: bool) -> LabeledDataset:
        parts = []
        for cls in (0, 1):
            pool = pools[cls]
            if filtered:
                pool, _ = filter_samples(pool, cls, baseline, plan.filter_threshold)
            take = pool[: plan.target_counts[cls]]
            parts.append(
                LabeledDataset(
                    images=take,
                    labels=np.full(len(take), cls, dtype=np.int8),
                    provenance=np.full(len(take), SYNTHETIC, dtype=np.int8),
                )
            )
        return concat_datasets(parts)

    rows = []
    for label, filtered in (("all_samples", False), ("filtered_samples", True)):
        synth = build(filtered)
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
