"""DiffuPT orchestration and the comparison/ablation experiments.

The method: train a conditional latent diffusion model on the imbalanced
real set, generate a class-balanced synthetic set filtered by the
already-trained baseline classifier, pretrain a fresh classifier on it
(model-selected against the real validation set), then fine-tune on the
real set at a tenth of the learning rate.

Two pairs of stages do not depend on each other, and each pair runs side by
side: the baseline classifier trains in a forked worker process while this
process trains the autoencoder and UNet (``ExperimentContext.ensure_models``),
and class 1 is sampled and filtered in the worker while this process does
class 0 (``generate_balanced_dataset``, ``filtering_ablation``). Only results
cross the process boundary: the baseline is built here with
``new_classifier`` and the worker's trained parameters are copied into it,
so every number, weight and hash is bitwise what running the two stages one
after the other gives. The worker starts only when it can help and is safe:
at least two CPUs in this process's affinity mask, ``os.fork`` available,
one Python thread in the process, work on both sides, and the caller not
itself a worker. Otherwise the same two functions run inline, one after the
other. No option selects this. What callers see of the worker: the worker's
memory is its own, so this process's ``ru_maxrss`` does not include it
(``RUSAGE_CHILDREN`` does); and a tracer installed in this process by
patching module globals records only this process's spans, not the
baseline's training or class 1's sampling.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import time
import traceback
from contextlib import contextmanager
from functools import partial
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, TypeVar

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

A = TypeVar("A")
B = TypeVar("B")

# ---------------------------------------------------------------------------
# the side-by-side worker
# ---------------------------------------------------------------------------

_IN_WORKER = False  # set only in a forked worker, which must not fork again


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, not the host's count)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _worker_can_start() -> bool:
    # A second CPU is what the worker uses. A fork copies only the calling
    # thread, so a lock another Python thread holds would stay locked in the
    # child; with one Python thread there is none. (OpenBLAS stops its own
    # thread pool before a fork and starts it again when next needed.)
    return _usable_cpus() >= 2 and hasattr(os, "fork") and threading.active_count() == 1 and not _IN_WORKER


def _run_worker(fn: Callable[[], object], fd: int) -> None:
    """Body of the forked child: send ``fn()``'s pickled result or exception down ``fd``, then exit."""
    global _IN_WORKER
    _IN_WORKER = True
    try:
        try:
            payload = pickle.dumps((True, fn()))
        except BaseException as e:  # sent to the parent, which raises it
            try:
                exc = pickle.dumps(e)
            except Exception:
                exc = None
            payload = pickle.dumps((False, exc, traceback.format_exc()))
        with open(fd, "wb") as f:
            f.write(payload)
        os._exit(0)
    finally:
        os._exit(1)  # never return into the parent's stack


def _worker_result(payload: bytes, status: int):
    """The value a worker sent, or its exception raised here."""
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or not payload:
        how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        raise ChildProcessError(f"the worker process {how} before sending a result")
    ok, *rest = pickle.loads(payload)
    if ok:
        return rest[0]
    exc_bytes, tb = rest
    try:
        exc = pickle.loads(exc_bytes)
    except Exception:
        exc = None
    if not isinstance(exc, BaseException):
        raise RuntimeError(f"the worker raised an exception that could not be sent back:\n{tb}")
    raise exc from RuntimeError(f"raised in the worker process:\n{tb}")


@contextmanager
def _forked(fn: Callable[[], B]) -> Iterator[Callable[[], B]]:
    """Start ``fn()`` in a forked child and yield a function that waits for it
    and returns its result or raises its exception (``ChildProcessError`` if it
    died). Leaving the block kills and reaps a child not yet waited for."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        _run_worker(fn, w)
    os.close(w)
    reaped = False

    def result() -> B:
        nonlocal reaped
        with open(r, "rb", closefd=False) as f:
            payload = f.read()  # until the child exits and its end closes
        _, status = os.waitpid(pid, 0)
        reaped = True
        return _worker_result(payload, status)

    try:
        yield result
    finally:
        os.close(r)
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _side_by_side(here: Callable[[], A] | None, there: Callable[[], B] | None) -> tuple[A | None, B | None]:
    """``(here(), there())``, with ``there()`` in a forked worker while ``here()``
    runs in this process when a worker can start; otherwise inline, ``here()``
    first. A side given as None has no work and gives None."""
    if here is None or there is None or not _worker_can_start():
        return (None if here is None else here()), (None if there is None else there())
    with _forked(there) as result:
        mine = here()
        return mine, result()


class GenerationShortfallError(RuntimeError):
    """Attempt budget exhausted before the target counts were reached."""

    def __init__(self, msg: str, partial: LabeledDataset, stats: "GenerationStats"):
        super().__init__(msg)
        self.partial = partial
        self.stats = stats

    def __reduce__(self):
        return type(self), (str(self), self.partial, self.stats)


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


@dataclass
class _ClassDraw:
    """What one class's generation produced."""

    kept: np.ndarray  # samples that passed the plan's filter, at most the class target
    unfiltered: np.ndarray  # the first samples as drawn, before the filter, at most the target
    attempted: int
    batches: int


def _generate_class(
    stack: GenerativeStack, plan: GenerationPlan, baseline: ClassifierModel | None, cls: int, rng: RngStream
) -> _ClassDraw:
    """Sample class ``cls`` in batches of ``plan.gen_batch`` until its target is
    kept or its attempt budget is spent."""
    target = plan.target_counts[cls]
    budget = int(np.ceil(plan.max_attempts_factor * target))
    empty = np.zeros((0,) + stack.image_shape)
    kept, unfiltered = [empty], [empty]
    n_kept = n_unfiltered = attempted = batches = 0
    while n_kept < target and attempted < budget:
        n = min(plan.gen_batch, budget - attempted)
        batch = stack.sample_class(n, cls, plan.guidance, plan.method, rng)
        attempted += n
        batches += 1
        unfiltered.append(batch[: target - n_unfiltered])
        n_unfiltered += len(unfiltered[-1])
        if plan.filter == "baseline":
            batch = filter_samples(batch, cls, baseline, plan.filter_threshold)
        kept.append(batch[: target - n_kept])
        n_kept += len(kept[-1])
    return _ClassDraw(np.concatenate(kept), np.concatenate(unfiltered), attempted, batches)


def _generate_classes(
    stack: GenerativeStack, plan: GenerationPlan, baseline: ClassifierModel | None, rngs: list[RngStream]
) -> list[_ClassDraw]:
    """Both classes' draws: class 1 in the worker while class 0 runs here."""
    draw = partial(_generate_class, stack, plan, baseline)
    # a class with no target draws nothing, so it is no work for the worker
    jobs = [partial(draw, cls, rngs[cls]) if plan.target_counts[cls] else None for cls in (0, 1)]
    return [d or draw(cls, rngs[cls]) for cls, d in enumerate(_side_by_side(*jobs))]


def generate_balanced_dataset(
    stack: GenerativeStack,
    plan: GenerationPlan,
    baseline: ClassifierModel | None,
    rng: RngStream,
) -> tuple[LabeledDataset, GenerationStats]:
    """Generate per class until the plan's counts are met or budget runs out."""
    if plan.filter == "baseline" and baseline is None:
        raise ValueError("plan filters on the baseline classifier but none was given")
    t0 = time.perf_counter()
    draws = _generate_classes(stack, plan, baseline, [rng.split(f"gen-class{cls}") for cls in (0, 1)])
    kept_counts = tuple(len(d.kept) for d in draws)
    attempted = tuple(d.attempted for d in draws)
    steps = plan.method.steps if plan.method.kind == "ddim" else stack.sched.T
    stats = GenerationStats(
        requested=tuple(plan.target_counts),
        attempted=attempted,
        kept=kept_counts,
        sampling_seconds=time.perf_counter() - t0,
        model_pair_calls=steps * sum(d.batches for d in draws),
    )

    ds = class_dataset([d.kept for d in draws], SYNTHETIC)
    if kept_counts[0] < plan.target_counts[0] or kept_counts[1] < plan.target_counts[1]:
        raise GenerationShortfallError(
            f"generation shortfall: kept {kept_counts} of requested {plan.target_counts} "
            f"after {attempted} attempts",
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
    _bound: tuple[Splits, RngStream] | None = field(default=None, init=False, repr=False)

    def new_classifier(self, splits: Splits, rng: RngStream) -> ClassifierModel:
        shape = splits.train.images.shape[1:]
        return ClassifierModel(shape, rng, conv_channels=self.clf_channels, feature_dim=self.clf_feature_dim)

    def bind(self, splits: Splits, rng: RngStream) -> None:
        """Tie the shared baseline and stack to ``splits`` and to the stream they
        train from. The first binding holds; other splits raise ``ValueError``."""
        if self._bound is None:
            self._bound = (splits, rng)
        elif splits is not self._bound[0]:
            raise ValueError("this context's baseline and stack belong to other splits; use a new ExperimentContext")

    def ensure_models(
        self, splits: Splits, rng: RngStream, baseline: bool = True, stack: bool = True
    ) -> tuple[ClassifierModel | None, GenerativeStack | None]:
        """The shared baseline and generative stack (each only if asked for),
        trained on first use from the bound stream; when both are missing the
        baseline trains in the worker while the stack trains here."""
        self.bind(splits, rng)
        rng = self._bound[1]
        train_stack = train_base = None
        if stack and self.stack is None:
            train_stack = partial(train_generative_stack, splits.train, self.stack_cfg, rng.split("stack"))
        if baseline and self.baseline is None:
            model = self.new_classifier(splits, rng.split("baseline-init"))
            train_base = partial(_train_baseline, model, splits, self.regime, rng.split("baseline-train"))
        new_stack, state = _side_by_side(train_stack, train_base)
        if state is not None:
            _load_trained(model, state)
            self.baseline = model
        if new_stack is not None:
            self.stack = new_stack
        return self.baseline, self.stack

    def ensure_baseline(self, splits: Splits, rng: RngStream) -> ClassifierModel:
        return self.ensure_models(splits, rng, stack=False)[0]

    def ensure_stack(self, splits: Splits, rng: RngStream) -> GenerativeStack:
        return self.ensure_models(splits, rng, baseline=False)[1]


def _train_baseline(model: ClassifierModel, splits: Splits, regime: TrainRegime, rng: RngStream) -> tuple:
    """Train ``model`` in place; returns the trained state, which is all a worker sends back."""
    train_classifier(model, splits.train, regime, rng, val_ds=splits.val)
    return model.trained, [(p.data, p.first_moment, p.second_moment, p.step_count) for p in model.parameters()]


def _load_trained(model: ClassifierModel, state: tuple) -> None:
    model.trained, params = state
    for p, (data, first, second, steps) in zip(model.parameters(), params):
        p.data[...] = data
        p.first_moment[...] = first
        p.second_moment[...] = second
        p.step_count = steps


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
    baseline, stack = ctx.ensure_models(splits, rng, stack=synthetic is None)
    if synthetic is None:
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
    baseline, stack = ctx.ensure_models(splits, rng)
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
    ctx.bind(splits, rng)  # shared models come from the root stream, not from whichever row asks first
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
    ctx.bind(splits, rng)
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
    baseline, stack = ctx.ensure_models(splits, rng)
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
    baseline, stack = ctx.ensure_models(splits, rng)
    plan = ctx.diffupt_cfg.generation
    # one shared candidate pool per class, drawn in one batch of its whole budget and filtered once
    budget = max(int(np.ceil(plan.max_attempts_factor * n)) for n in plan.target_counts)
    gen_rng = rng.split("shared-pool")
    pool_plan = replace(plan, filter="baseline", gen_batch=budget)
    draws = _generate_classes(stack, pool_plan, baseline, [gen_rng.split(f"class{cls}") for cls in (0, 1)])

    rows = []
    for label, kept in (("all_samples", [d.unfiltered for d in draws]), ("filtered_samples", [d.kept for d in draws])):
        synth = class_dataset(kept, SYNTHETIC)
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
