"""DiffuPT orchestration and the comparison/ablation experiments.

The method: train a conditional latent diffusion model on the imbalanced
real set, generate a class-balanced synthetic set filtered by the
already-trained baseline classifier, pretrain a fresh classifier on it
(model-selected against the real validation set), then fine-tune on the
real set at a tenth of the learning rate.

Generation has one path. Each class draws the noise for its whole attempt
budget once (``_generate_class``); ``GenerativeStack.sample_class`` turns
each ``gen_batch``-row block of it into images by deterministic DDIM, which
draws nothing, then ``unwhiten``, ``decode`` and a clamp; the baseline filter
keeps some, until the class's target is kept. So the kept images do not depend
on ``gen_batch``: it changes only how many rows are ``attempted``, a whole
number of blocks. ``filtering_ablation`` runs that path once a class, with
the filter, and takes the unfiltered images from the first samples it drew.

Independent work runs in two lanes (``_lanes``): given a list of jobs, this
process runs the first half in order while a forked worker runs the rest, and
the results come back in job order. The worker has three uses. It trains the
shared baseline classifier while this process trains the autoencoder and UNet
(``ExperimentContext.ensure_models``). It samples and filters class 1 while
this process does class 0 (``generate_balanced_dataset``,
``filtering_ablation``). And it trains and evaluates the second half of the
rows of ``run_comparison`` and ``augmentation_sweep`` while this process does
the first half; a row that needs the shared baseline and stack has them
trained before the rows' lanes start. Only results cross the process
boundary: every classifier is built here with ``new_classifier``, in the
order a sequential run builds them, and the worker's trained parameters are
copied into it, so every number, weight and hash is bitwise what running the
jobs one after the other gives. The worker starts only when it can help and
is safe: at least two CPUs in this process's affinity mask, ``os.fork``
available, one Python thread in the process, at least two jobs with work, and
no worker already running (neither a worker nor its parent starts another, so
at most two processes compute at once). Otherwise the same jobs run inline,
in order. No option selects this. What callers see of the worker: its memory
is its own, so this process's ``ru_maxrss`` does not include it
(``RUSAGE_CHILDREN`` does); and a tracer installed in this process by
patching module globals records only this process's spans, not the
baseline's training, class 1's sampling or the worker's rows.
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

from . import diffusion as df
from . import latentae
from . import metrics as M
from .classifier import ClassifierModel, TrainRegime, embedding_statistics, multi_stage_retrain, train_classifier
from .data import SYNTHETIC, LabeledDataset, check_counts, class_dataset, concat_datasets, is_count, smote_oversample
from .diffusion import (
    DenoiserModel,
    DiffusionTrainConfig,
    GuidanceSpec,
    NoiseSchedule,
    SampleMethod,
    UNetDenoiser,
    linear_schedule,
    train_diffusion,
)
from .latentae import (
    AeTrainConfig,
    Autoencoder,
    ReconstructionReport,
    calibrate_and_report,
    encode,
    train_autoencoder,
    whiten,
)
from .numcore import RngStream

A = TypeVar("A")
B = TypeVar("B")

# ---------------------------------------------------------------------------
# the two lanes
# ---------------------------------------------------------------------------

_BUSY = False  # True while a worker runs, in it and in its parent: neither may start another


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, not the host's count)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _worker_can_start() -> bool:
    # A second CPU is what the worker uses. A fork copies only the calling
    # thread, so a lock another Python thread holds would stay locked in the
    # child; with one Python thread there is none. (OpenBLAS stops its own
    # thread pool before a fork and starts it again when next needed.)
    return _usable_cpus() >= 2 and hasattr(os, "fork") and threading.active_count() == 1 and not _BUSY


def _run_worker(fn: Callable[[], object], fd: int) -> None:
    """Body of the forked child: send ``fn()``'s pickled result or exception down ``fd``, then exit."""
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


def _lanes(jobs: list[Callable[[], A] | None]) -> list[A | None]:
    """Every job's result, in job order; a job given as None has no work and gives None.

    When a worker can start and at least two jobs have work, this process runs
    the first half of them (rounded up) and a forked worker the rest, each lane
    in job order; otherwise all run inline, in job order. The split is
    contiguous, so the exception raised is the earliest failing job's, as
    inline: one in this process's lane comes first (and the worker is killed),
    else the worker's first. Neither lane can start a worker of its own."""
    global _BUSY
    todo = [i for i, job in enumerate(jobs) if job is not None]
    split = (len(todo) + 1) // 2 if len(todo) > 1 and _worker_can_start() else len(todo)

    def run(lane: list[int]) -> list:
        return [jobs[i]() for i in lane]

    if split == len(todo):
        done = run(todo)
    else:
        _BUSY = True  # the worker inherits it
        try:
            with _forked(partial(run, todo[split:])) as theirs:
                done = run(todo[:split])
                done += theirs()
        finally:
            _BUSY = False
    results = iter(done)
    return [None if job is None else next(results) for job in jobs]


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
    gen_batch: int = 256  # rows per sampling pass: it moves `attempted`, never the kept images

    def __post_init__(self):
        counts = self.target_counts
        if not (isinstance(counts, (tuple, list)) and len(counts) == 2 and all(map(is_count, counts))):
            raise ValueError(f"target_counts must be a pair of whole numbers >= 0, got {counts!r}")
        if self.filter not in ("none", "baseline"):
            raise ValueError(f"unknown filter {self.filter!r}")
        if not (0.0 < self.filter_threshold < 1.0):
            raise ValueError("filter threshold must lie in (0,1)")
        if not (np.isfinite(self.max_attempts_factor) and self.max_attempts_factor >= 1.0):
            raise ValueError(f"max_attempts_factor must be finite and >= 1, got {self.max_attempts_factor}")
        check_counts(self, 1, "gen_batch")
        if self.method.steps > TIMESTEPS:
            raise ValueError(f"steps must be <= the schedule's {TIMESTEPS} timesteps, got {self.method.steps}")

    def attempt_budget(self, cls: int) -> int:
        """The most samples class ``cls`` may draw to reach its target."""
        return int(np.ceil(self.max_attempts_factor * self.target_counts[cls]))


@dataclass
class GenerationStats:
    requested: tuple[int, int]
    attempted: tuple[int, int] = (0, 0)
    kept: tuple[int, int] = (0, 0)
    sampling_seconds: float = 0.0


def filter_samples(samples: np.ndarray, target_class: int, baseline: ClassifierModel, threshold: float) -> np.ndarray:
    """Keep samples the baseline assigns to the target class at >= threshold."""
    p = baseline.predict_proba(samples)
    p_target = p if target_class == 1 else 1.0 - p
    return samples[p_target >= threshold]


# ---------------------------------------------------------------------------
# generative stack
# ---------------------------------------------------------------------------


# The generative stack's sizes. The schedule's betas are ``diffusion``'s
# ``BETA_START`` and ``BETA_END``, and the UNet's depth follows from the latent's size.
AE_BASE_CHANNELS = 16
LATENT_CHANNELS = 4
UNET_BASE_CHANNELS = 16
UNET_EMB_DIM = 32
TIMESTEPS = 1000


@dataclass
class StackConfig:
    ae: AeTrainConfig = field(default_factory=AeTrainConfig)
    diffusion: DiffusionTrainConfig = field(default_factory=DiffusionTrainConfig)


@dataclass
class GenerativeStack:
    ae: Autoencoder
    denoiser: DenoiserModel
    sched: NoiseSchedule
    ae_report: ReconstructionReport | None = None
    unet_losses: np.ndarray | None = None  # the denoiser's per-iteration training loss

    def sample_class(self, noise: np.ndarray, y: int, guidance: GuidanceSpec, method: SampleMethod) -> np.ndarray:
        """The one path from noise to images: DDIM from whitened-latent ``noise``,
        shaped (n, *ae.latent_shape), to class ``y``, then unwhiten, decode and
        clamp into [0, 1]. Each image depends on its own noise row alone."""
        z = df.sample_raw(self.denoiser, noise, y, guidance, method, self.sched)
        return np.clip(latentae.decode(self.ae, latentae.unwhiten(self.ae, z)), 0.0, 1.0)


def train_generative_stack(train_ds: LabeledDataset, cfg: StackConfig, rng: RngStream) -> GenerativeStack:
    """Autoencoder, latent calibration, then conditional latent denoiser, for
    the square images of ``train_ds``."""
    channels, size = train_ds.images.shape[1:3]
    ae = Autoencoder(size, channels, AE_BASE_CHANNELS, LATENT_CHANNELS, rng.split("ae-init"))
    train_autoencoder(ae, train_ds, cfg.ae, rng.split("ae-train"))
    # one encode of every row serves the calibration, the report and the denoiser's latents
    z = encode(ae, train_ds.images)
    ae_report = calibrate_and_report(ae, train_ds.images, z, trained=cfg.ae.iterations > 0)
    sched = linear_schedule(TIMESTEPS)
    denoiser = UNetDenoiser(ae.latent_shape, UNET_BASE_CHANNELS, rng.split("unet-init"), emb_dim=UNET_EMB_DIM)
    losses = train_diffusion(denoiser, whiten(ae, z), train_ds.labels.astype(np.int64), cfg.diffusion, sched, rng.split("unet-train"))
    return GenerativeStack(ae=ae, denoiser=denoiser, sched=sched, ae_report=ae_report, unet_losses=losses)


@dataclass
class _ClassDraw:
    """What one class's generation produced."""

    kept: np.ndarray  # samples that passed the plan's filter, at most the class target
    attempted: int
    head: np.ndarray  # the first samples drawn, before the filter, at most the class target


def _generate_class(
    stack: GenerativeStack, plan: GenerationPlan, baseline: ClassifierModel | None, cls: int, rng: RngStream
) -> _ClassDraw:
    """Sample class ``cls`` from one noise draw of its whole attempt budget, in
    blocks of ``plan.gen_batch`` rows, until its target is kept or the draw is
    spent. Every image is a function of its own noise row, so the kept images
    do not depend on ``gen_batch``; only ``attempted`` (whole blocks) does.
    ``head`` copies the first ``target`` samples, before the filter."""
    target = plan.target_counts[cls]
    empty = np.zeros((0,) + stack.ae.image_shape)
    kept, head = [empty], [empty]
    n_kept = attempted = 0
    for noise in rng.normal_blocks(plan.attempt_budget(cls), stack.ae.latent_shape, plan.gen_batch):
        if n_kept >= target:
            break
        batch = stack.sample_class(noise, cls, plan.guidance, plan.method)
        if attempted < target:
            head.append(batch[: target - attempted].copy())
        attempted += len(noise)
        if plan.filter == "baseline":
            batch = filter_samples(batch, cls, baseline, plan.filter_threshold)
        kept.append(batch[: target - n_kept])
        n_kept += len(kept[-1])
    return _ClassDraw(np.concatenate(kept), attempted, np.concatenate(head))


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
    draw = partial(_generate_class, stack, plan, baseline)
    rngs = [rng.split(f"gen-class{cls}") for cls in (0, 1)]
    # two lanes, class 1 in the worker; a class with no target draws nothing, so it is no work for the worker
    jobs = [partial(draw, cls, rngs[cls]) if plan.target_counts[cls] else None for cls in (0, 1)]
    draws = [d or draw(cls, rngs[cls]) for cls, d in enumerate(_lanes(jobs))]
    kept_counts = tuple(len(d.kept) for d in draws)
    attempted = tuple(d.attempted for d in draws)
    stats = GenerationStats(
        requested=tuple(plan.target_counts),
        attempted=attempted,
        kept=kept_counts,
        sampling_seconds=time.perf_counter() - t0,
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

    regime: TrainRegime = field(default_factory=TrainRegime)
    stack_cfg: StackConfig = field(default_factory=StackConfig)
    diffupt_cfg: DiffuPTConfig = field(default_factory=DiffuPTConfig)
    stack: GenerativeStack | None = None
    baseline: ClassifierModel | None = None
    _bound: tuple[Splits, RngStream] | None = field(default=None, init=False, repr=False)

    def new_classifier(self, splits: Splits, rng: RngStream) -> ClassifierModel:
        return ClassifierModel(splits.train.images.shape[1:], rng)

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
        trained on first use from the bound stream; when both are missing they
        train in two lanes, the baseline in the worker while the stack trains here."""
        self.bind(splits, rng)
        rng = self._bound[1]
        train_stack = train_base = None
        if stack and self.stack is None:
            train_stack = partial(train_generative_stack, splits.train, self.stack_cfg, rng.split("stack"))
        if baseline and self.baseline is None:
            model = self.new_classifier(splits, rng.split("baseline-init"))
            train = partial(
                train_classifier, model, splits.train, self.regime, rng.split("baseline-train"), val_ds=splits.val
            )
            train_base = partial(_trained, model, train)
        new_stack, trained = _lanes([train_stack, train_base])
        if trained is not None:
            _load_trained(model, trained[1])
            self.baseline = model
        if new_stack is not None:
            self.stack = new_stack
        return self.baseline, self.stack

    def ensure_baseline(self, splits: Splits, rng: RngStream) -> ClassifierModel:
        return self.ensure_models(splits, rng, stack=False)[0]

    def ensure_stack(self, splits: Splits, rng: RngStream) -> GenerativeStack:
        return self.ensure_models(splits, rng, baseline=False)[1]


def _trained(model: ClassifierModel, train: Callable[[], A]) -> tuple[A, tuple]:
    """``train()``, which trains ``model`` in place, and then the model's trained
    state: all a worker sends back for ``_load_trained`` to copy into this
    process's ``model``."""
    out = train()
    return out, (model.trained, model.parameter_buffer, [p.step_count for p in model.parameters()])


def _load_trained(model: ClassifierModel, state: tuple) -> None:
    model.trained, buffer, steps = state
    model.parameter_buffer[...] = buffer
    for p, step in zip(model.parameters(), steps):
        p.step_count = step


def _evaluate(model: ClassifierModel, ds: LabeledDataset) -> M.EvalReport:
    return M.evaluate_probs(model.predict_proba(ds.images), ds.labels)


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
    model = ctx.new_classifier(splits, rng.split("diffupt-init"))
    return _diffupt_after(splits, cfg, rng, baseline, stack, synthetic, model)


def _diffupt_after(
    splits: Splits,
    cfg: DiffuPTConfig,
    rng: RngStream,
    baseline: ClassifierModel | None,
    stack: GenerativeStack | None,
    synthetic: LabeledDataset | None,
    model: ClassifierModel,
) -> DiffuPTResult:
    """DiffuPT once its shared models and its fresh classifier ``model`` exist:
    generate (unless ``synthetic`` is given), then pretrain and fine-tune ``model``."""
    if synthetic is None:
        synthetic, stats = generate_balanced_dataset(stack, cfg.generation, baseline, rng.split("generate"))
    else:
        stats = GenerationStats(requested=cfg.generation.target_counts, kept=synthetic.class_counts)

    if len(synthetic):
        train_classifier(model, synthetic, cfg.pretrain, rng.split("pretrain"), val_ds=splits.val)
    pretrain_val = _evaluate(model, splits.val)
    # fine-tuning is a new stage at a new lr: it starts from the pretrained values, not pretraining's Adam state
    model.reset_optimizer_state()
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


# A runner is called in this process, in row order. It builds what must be built
# here (the method's classifier with ``ctx.new_classifier``, and the shared
# baseline and stack when the method needs them) and returns that classifier
# with the job that trains it in place and returns its (val, test) reports; the
# job runs in the row's lane.
Job = Callable[[], tuple[M.EvalReport, M.EvalReport]]
Runner = Callable[[Splits, ExperimentContext, RngStream], tuple[ClassifierModel, Job]]
# A training set is chosen here like a runner and built in the row's lane by the function returned.
TrainSet = Callable[[Splits, ExperimentContext, RngStream], Callable[[], LabeledDataset]]


def _smote_minority(splits: Splits, ctx: ExperimentContext, rng: RngStream) -> Callable[[], LabeledDataset]:
    """The real set plus SMOTE minority samples up to the majority count."""
    n_neg, n_pos = splits.train.class_counts
    if n_pos < 2:
        raise ValueError(f"smote_augment needs at least 2 minority training images, got {n_pos}")

    def build() -> LabeledDataset:
        train = splits.train
        minority = train.images[train.labels == 1]
        n_new = max(0, n_neg - n_pos)
        new = smote_oversample(minority, k=min(5, n_pos - 1), n_new=n_new, rng=rng.split("smote"))
        return concat_datasets([train, class_dataset([new[:0], new], SYNTHETIC)])

    return build


def _generated_minority(
    count: int, splits: Splits, ctx: ExperimentContext, rng: RngStream
) -> Callable[[], LabeledDataset]:
    """The real set plus ``count`` generated, baseline-filtered minority samples."""
    if count == 0:
        return lambda: splits.train
    baseline, stack = ctx.ensure_models(splits, rng)
    plan = replace(ctx.diffupt_cfg.generation, target_counts=(0, count))

    def build() -> LabeledDataset:
        synth, _ = generate_balanced_dataset(stack, plan, baseline, rng.split("augment-gen"))
        return concat_datasets([splits.train, synth])

    return build


def _one_classifier(train_set: TrainSet | None = None, **regime_changes) -> Runner:
    """Train one fresh classifier on ``train_set`` (default: the real training
    set) under the context's regime with ``regime_changes`` applied."""

    def run(splits: Splits, ctx: ExperimentContext, rng: RngStream):
        train = (lambda: splits.train) if train_set is None else train_set(splits, ctx, rng)
        model = ctx.new_classifier(splits, rng.split("init"))

        def job():
            regime = replace(ctx.regime, **regime_changes)
            train_classifier(model, train(), regime, rng.split("train"), val_ds=splits.val)
            return _evaluate(model, splits.val), _evaluate(model, splits.test)

        return model, job

    return run


def _multi_stage(splits: Splits, ctx: ExperimentContext, rng: RngStream):
    """Decoupled retraining (Kang et al. 2020): train, then retrain only the head class-balanced."""
    regime = ctx.regime
    model = ctx.new_classifier(splits, rng.split("init"))

    def job():
        train_classifier(model, splits.train, regime, rng.split("stage1"), val_ds=splits.val)
        multi_stage_retrain(model, splits.train, regime, rng.split("stage2"), val_ds=splits.val)
        return _evaluate(model, splits.val), _evaluate(model, splits.test)

    return model, job


def _diffupt(splits: Splits, ctx: ExperimentContext, rng: RngStream):
    baseline, stack = ctx.ensure_models(splits, rng)
    model = ctx.new_classifier(splits, rng.split("diffupt-init"))

    def job():
        res = _diffupt_after(splits, ctx.diffupt_cfg, rng, baseline, stack, None, model)
        return res.val, res.test

    return model, job


METHODS: dict[str, Runner] = {
    "normal": _one_classifier(),
    "weighted_ce": _one_classifier(weighted_loss=True),
    "weighted_sampler": _one_classifier(balanced_sampler=True),
    "weighted_ce+sampler": _one_classifier(weighted_loss=True, balanced_sampler=True),
    "multi_stage+sampler": _multi_stage,
    "smote_augment": _one_classifier(_smote_minority, balanced_sampler=False),
    "diffupt": _diffupt,
}


def _method(label: str) -> Runner:
    """The runner for ``label``: one of ``METHODS``, or gen_augment(N), which adds
    N generated minority samples under a balanced sampler. ValueError for an
    unknown label or an N that is not a whole number >= 0."""
    if label.startswith("gen_augment(") and label.endswith(")"):
        count = label[len("gen_augment(") : -1]
        if not count.isascii() or not count.isdigit():
            raise ValueError(f"{label!r}: gen_augment(N) needs N to be a whole number >= 0")
        return _one_classifier(partial(_generated_minority, int(count)), balanced_sampler=True)
    if label not in METHODS:
        raise ValueError(f"unknown method label {label!r}")
    return METHODS[label]


def run_comparison(splits: Splits, methods: list[str], rng: RngStream, ctx: ExperimentContext | None = None) -> list[MethodResult]:
    """One row per method, trained on shared splits with per-method streams.

    Every row's classifier, and the shared models a row needs, are built here
    in row order; then the rows train and are evaluated in two lanes, and the
    worker's trained classifiers are copied into the ones built here."""
    ctx = ctx or ExperimentContext()
    runners = [_method(label) for label in methods]  # fail fast on bad labels
    ctx.bind(splits, rng)  # shared models come from the root stream, not from whichever row asks first
    built = [run(splits, ctx, rng.split(label)) for label, run in zip(methods, runners)]
    done = _lanes([partial(_trained, model, job) for model, job in built])
    for (model, _), (_, state) in zip(built, done):
        _load_trained(model, state)
    return [MethodResult(label, *reports) for label, (reports, _) in zip(methods, done)]


def augmentation_sweep(
    splits: Splits,
    counts: list[int],
    rng: RngStream,
    ctx: ExperimentContext | None = None,
) -> list[tuple[int, MethodResult]]:
    """Harmonic mean vs number of added filtered synthetic minority samples.

    Count 0 is exactly the weighted-sampler baseline row (same stream)."""
    labels = ["weighted_sampler" if count == 0 else f"gen_augment({count})" for count in counts]
    return list(zip(counts, run_comparison(splits, labels, rng, ctx)))


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
    if not (is_count(total) and total >= 1):
        raise ValueError(f"total must be a whole number >= 1, got {total!r}")
    for pos_pct, neg_pct in distributions:
        if not (0 <= pos_pct <= 100 and 0 <= neg_pct <= 100):
            raise ValueError(f"distribution shares must lie in [0, 100], got {pos_pct}-{neg_pct}")
        if pos_pct + neg_pct != 100:
            raise ValueError(f"distribution must sum to 100, got {pos_pct}-{neg_pct}")
    ctx = ctx or ExperimentContext()
    baseline, stack = ctx.ensure_models(splits, rng)
    rows = []
    for pos_pct, neg_pct in distributions:
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
    """Same pipeline twice from one filtered generation pass per class: its first
    samples (``head``, no filter) vs the first that pass the baseline filter at
    ``plan.filter_threshold`` (``kept``), whatever ``plan.filter`` says."""
    ctx = ctx or ExperimentContext()
    baseline, stack = ctx.ensure_models(splits, rng)
    plan = replace(ctx.diffupt_cfg.generation, filter="baseline")
    gen_rng = rng.split("shared-pool")

    def draw(cls: int) -> tuple[np.ndarray, np.ndarray]:
        """The class's first samples, unfiltered, and the first that pass the filter."""
        d = _generate_class(stack, plan, baseline, cls, gen_rng.split(f"class{cls}"))
        return d.head, d.kept

    # the two classes in two lanes; a class with no target draws nothing, so it is no work for the worker
    drawn = _lanes([partial(draw, cls) if plan.target_counts[cls] else None for cls in (0, 1)])
    all_samples, filtered = zip(*(d or draw(cls) for cls, d in enumerate(drawn)))

    rows = []
    for label, kept in (("all_samples", all_samples), ("filtered_samples", filtered)):
        synth = class_dataset(kept, SYNTHETIC)
        res = diffupt_run(splits, ctx.diffupt_cfg, rng.split("shared-downstream"), ctx=ctx, synthetic=synth)
        rows.append(FilteringRow(label=label, synthetic=synth, val=res.val, test=res.test))
    return rows

