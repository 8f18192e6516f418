"""Pipeline bookkeeping tests on tiny configurations."""

import os
import pickle
import re
import signal
import threading
from dataclasses import replace

import numpy as np
import pytest

from diffupt import diffusion as D
from diffupt import latentae as L
from diffupt import pipeline as P
from diffupt.classifier import TrainRegime
from diffupt.data import SynthFundusConfig, generate_synth_fundus, stratified_split
from diffupt.diffusion import DiffusionTrainConfig, DivergenceError, GuidanceSpec, SampleMethod, UNetDenoiser, linear_schedule, train_diffusion
from diffupt.latentae import AeTrainConfig
from diffupt.numcore import RngStream
from test_models import _peak_bytes


def _tiny_splits(seed: int = 0) -> P.Splits:
    ds = generate_synth_fundus(SynthFundusConfig(seed=seed), 60, 24)
    return P.Splits(*stratified_split(ds, (0.7, 0.15, 0.15), test_minority_fraction=0.2, seed=seed))


def test_diffupt_run_with_given_synthetic_reports_kept_as_neg_pos():
    cfg = P.DiffuPTConfig(
        pretrain=TrainRegime(iterations=1, batch=8, lr=1e-3),
        finetune=TrainRegime(iterations=1, batch=8, lr=1e-4),
    )
    ctx = P.ExperimentContext(regime=TrainRegime(iterations=1, batch=8), diffupt_cfg=cfg)
    synthetic = generate_synth_fundus(SynthFundusConfig(seed=7), 30, 10)
    assert synthetic.class_counts == (30, 10)
    res = P.diffupt_run(_tiny_splits(), cfg, RngStream(0), ctx=ctx, synthetic=synthetic)
    assert res.generation_stats.kept == (30, 10)


def test_finetune_starts_with_fresh_optimizer_state(monkeypatch):
    cfg = P.DiffuPTConfig(
        pretrain=TrainRegime(iterations=3, batch=8, lr=1e-3, eval_every=1),
        finetune=TrainRegime(iterations=2, batch=8, lr=1e-4),
    )
    ctx = P.ExperimentContext(regime=TrainRegime(iterations=1, batch=8), diffupt_cfg=cfg)
    seen, train = [], P.train_classifier

    def recording(model, ds, regime, rng, **kw):
        buffer = model.parameter_buffer
        seen.append((regime, buffer[0].copy(), buffer[1:].any(), {p.step_count for p in model.parameters()}))
        return train(model, ds, regime, rng, **kw)

    monkeypatch.setattr(P, "train_classifier", recording)
    synthetic = generate_synth_fundus(SynthFundusConfig(seed=7), 30, 10)
    res = P.diffupt_run(_tiny_splits(), cfg, RngStream(0), ctx=ctx, synthetic=synthetic)
    (pretrain, *_), (finetune, values, moments, steps) = seen[-2:]  # after the baseline's
    assert pretrain is cfg.pretrain and finetune is cfg.finetune
    assert not moments and steps == {0}  # no Adam moments or step count carried over from pretraining
    assert res.model.trained and not np.array_equal(values, res.model.parameter_buffer[0])


# ---------------------------------------------------------------------------
# tiny end-to-end experiments: every method and ablation, rerun bitwise
# ---------------------------------------------------------------------------

ALL_METHODS = [
    "normal",
    "weighted_ce",
    "weighted_sampler",
    "weighted_ce+sampler",
    "multi_stage+sampler",
    "smote_augment",
    "gen_augment(4)",
    "diffupt",
]


class _RecordingContext(P.ExperimentContext):
    """Keeps every classifier it builds, so a rerun can compare final weights."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.models = []

    def new_classifier(self, splits, rng):
        model = super().new_classifier(splits, rng)
        self.models.append(model)
        return model


def _tiny_context() -> _RecordingContext:
    """Few iterations everywhere and no generation filter, so no class falls short."""
    plan = P.GenerationPlan(
        target_counts=(3, 3),
        method=SampleMethod("ddim", steps=2),
        filter="none",
        max_attempts_factor=2.0,
        gen_batch=6,
    )
    return _RecordingContext(
        regime=TrainRegime(iterations=3, batch=8, eval_every=2),
        stack_cfg=P.StackConfig(ae=AeTrainConfig(iterations=2), diffusion=DiffusionTrainConfig(iterations=2)),
        diffupt_cfg=P.DiffuPTConfig(
            pretrain=TrainRegime(iterations=2, batch=8, lr=1e-3),
            finetune=TrainRegime(iterations=2, batch=8, lr=1e-4),
            generation=plan,
        ),
    )


def _twice(experiment):
    """Run ``experiment(splits, rng, ctx)`` on two fresh contexts; both runs must agree bitwise."""
    outs = []
    for _ in range(2):
        ctx = _tiny_context()
        out = experiment(_tiny_splits(3), RngStream(3), ctx)
        outs.append((out, [m.weight_bytes() for m in ctx.models]))
    (first, w1), (second, w2) = outs
    assert repr(first) == repr(second)  # repr: NaN-safe and exact for floats
    assert w1 and w1 == w2
    return first


def test_run_comparison_all_methods_rerun_bitwise():
    rows = _twice(lambda s, r, c: P.run_comparison(s, ALL_METHODS, r, ctx=c))
    assert [row.method for row in rows] == ALL_METHODS
    for row in rows:
        assert np.isfinite(row.test.auc)


def test_augmentation_sweep_rerun_bitwise_and_count_zero_is_weighted_sampler():
    sweep = _twice(lambda s, r, c: P.augmentation_sweep(s, [0, 4], r, ctx=c))
    assert [count for count, _ in sweep] == [0, 4]
    ctx = _tiny_context()
    (row,) = P.run_comparison(_tiny_splits(3), ["weighted_sampler"], RngStream(3), ctx=ctx)
    assert repr(sweep[0][1]) == repr(row)


def test_distribution_ablation_rerun_bitwise():
    rows = _twice(lambda s, r, c: P.distribution_ablation(s, [(50, 50), (30, 70)], 6, r, ctx=c))
    assert [(row.requested, row.generated) for row in rows] == [((3, 3), (3, 3)), ((4, 2), (4, 2))]


def test_filtering_ablation_rerun_bitwise():
    rows = _twice(lambda s, r, c: P.filtering_ablation(s, r, ctx=c))
    assert [row.label for row in rows] == ["all_samples", "filtered_samples"]
    assert rows[0].synthetic.class_counts == (3, 3)
    assert len(rows[1].synthetic) <= 6


def test_unknown_method_raises_before_any_training(monkeypatch):
    calls = []
    monkeypatch.setattr(P, "train_classifier", lambda *a, **k: calls.append(a))
    for bad in ("bogus", "gen_augment", "gen_augment(x)"):
        with pytest.raises(ValueError):
            P.run_comparison(_tiny_splits(), ["normal", bad], RngStream(0), ctx=_tiny_context())
    assert calls == []


def _record_training(monkeypatch):
    """Calls to train a classifier or a generative stack; one CPU keeps every call in this process."""
    calls = []
    monkeypatch.setattr(P, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(P, "train_classifier", lambda *a, **k: calls.append("classifier"))
    monkeypatch.setattr(P, "train_generative_stack", lambda *a, **k: calls.append("stack"))
    return calls


def test_negative_augment_count_raises_before_any_training(monkeypatch):
    calls = _record_training(monkeypatch)
    with pytest.raises(ValueError, match="gen_augment"):
        P.run_comparison(_tiny_splits(), ["normal", "gen_augment(-2)"], RngStream(0), ctx=_tiny_context())
    with pytest.raises(ValueError, match="gen_augment"):
        P.augmentation_sweep(_tiny_splits(), [0, -2], RngStream(0), ctx=_tiny_context())
    assert calls == []


@pytest.mark.parametrize("label", ["gen_augment(x)", "gen_augment()", "gen_augment(1.5)", "gen_augment( 3)"])
def test_malformed_augment_count_names_the_label(label, monkeypatch):
    calls = _record_training(monkeypatch)
    with pytest.raises(ValueError, match=r"whole number >= 0") as err:
        P.run_comparison(_tiny_splits(), ["normal", label], RngStream(0), ctx=_tiny_context())
    assert repr(label) in str(err.value)
    assert calls == []


def test_bad_distribution_raises_before_any_training(monkeypatch):
    calls = _record_training(monkeypatch)
    with pytest.raises(ValueError, match="must sum to 100"):
        P.distribution_ablation(_tiny_splits(), [(50, 50), (60, 30)], 6, RngStream(0), ctx=_tiny_context())
    assert calls == []


@pytest.mark.parametrize(
    "distributions, total, match",
    [
        ([(50, 50)], -6, "^total must"),
        ([(50, 50)], 6.0, "^total must"),
        ([(50, 50)], True, "^total must"),
        ([(50, 50), (-10, 110)], 6, r"\[0, 100\]"),
        ([(110, -10)], 6, r"\[0, 100\]"),
    ],
    ids=["negative total", "float total", "bool total", "negative share", "share over 100"],
)
def test_bad_total_or_share_raises_before_any_training(distributions, total, match, monkeypatch):
    # each would train the baseline and the stack and only then fail at a plan of negative or float counts
    calls = _record_training(monkeypatch)
    with pytest.raises(ValueError, match=match):
        P.distribution_ablation(_tiny_splits(), distributions, total, RngStream(0), ctx=_tiny_context())
    assert calls == []


@pytest.mark.parametrize("minority", [0, 1])
def test_smote_augment_with_too_few_minority_images_raises_before_any_training(minority, monkeypatch):
    # SMOTE needs a neighbour for each minority image, so at least two of them
    calls = _record_training(monkeypatch)
    splits = _tiny_splits()
    labels = splits.train.labels
    keep = [*np.flatnonzero(labels == 0), *np.flatnonzero(labels == 1)[:minority]]
    splits = replace(splits, train=splits.train.subset(keep))
    assert splits.train.class_counts[1] == minority
    with pytest.raises(ValueError, match=rf"^smote_augment needs at least 2 minority training images, got {minority}$"):
        P.run_comparison(splits, ["normal", "smote_augment"], RngStream(0), ctx=_tiny_context())
    assert calls == []


def test_context_cache_refuses_other_splits():
    ctx = _tiny_context()
    splits, rng = _tiny_splits(0), RngStream(0)
    baseline = ctx.ensure_baseline(splits, rng)
    stack = ctx.ensure_stack(splits, rng)
    assert ctx.ensure_baseline(splits, rng) is baseline and ctx.ensure_stack(splits, rng) is stack
    other = _tiny_splits(1)
    with pytest.raises(ValueError, match="splits"):
        ctx.ensure_baseline(other, rng)
    with pytest.raises(ValueError, match="splits"):
        ctx.ensure_stack(other, rng)


def test_shared_models_do_not_depend_on_row_order():
    alone = P.run_comparison(_tiny_splits(3), ["diffupt"], RngStream(3), ctx=_tiny_context())
    after = P.run_comparison(_tiny_splits(3), ["gen_augment(4)", "diffupt"], RngStream(3), ctx=_tiny_context())
    assert repr(alone[0]) == repr(after[1])


def test_stack_encodes_each_training_image_once(monkeypatch):
    # 126 training and 14 holdout rows: separate encodes cut 64-row passes elsewhere than one encode of all 140
    ds = generate_synth_fundus(SynthFundusConfig(seed=3), 100, 40)
    cfg = P.StackConfig(ae=AeTrainConfig(iterations=3), diffusion=DiffusionTrainConfig(iterations=2))
    calls, encode = [], L.encode
    counted = lambda ae, images, **kw: calls.append(len(images)) or encode(ae, images, **kw)  # noqa: E731
    for module in (P, L):
        monkeypatch.setattr(module, "encode", counted)
    stack = P.train_generative_stack(ds, cfg, RngStream(5))
    assert calls == [len(ds)]

    # the same stack from separate encodes: the calibration's, each report row's and the denoiser's
    rng = RngStream(5)
    ae = L.Autoencoder(16, 1, P.AE_BASE_CHANNELS, P.LATENT_CHANNELS, rng.split("ae-init"))
    L.train_autoencoder(ae, ds, cfg.ae, rng.split("ae-train"))
    n = L.training_rows(len(ds))
    assert n == 126
    L.calibrate_latents(ae, encode(ae, ds.images[:n]))
    rows = [L.reconstruction_report(ae, part, encode(ae, part), split) for part, split in ((ds.images[:n], "train"), (ds.images[n:], "holdout"))]
    sched = linear_schedule(P.TIMESTEPS)
    denoiser = UNetDenoiser(ae.latent_shape, P.UNET_BASE_CHANNELS, rng.split("unet-init"), emb_dim=P.UNET_EMB_DIM)
    latents = L.whiten(ae, encode(ae, ds.images))
    losses = train_diffusion(denoiser, latents, ds.labels.astype(np.int64), cfg.diffusion, sched, rng.split("unet-train"))
    assert stack.ae.weight_bytes() == ae.weight_bytes()  # the latent shift and scale buffers included
    assert repr(stack.ae_report.rows) == repr(rows)
    assert stack.denoiser.weight_bytes() == denoiser.weight_bytes()
    # the UNet's loss curve, one value per configured iteration
    assert stack.unet_losses.shape == (cfg.diffusion.iterations,) and np.array_equal(stack.unet_losses, losses)


def test_stack_has_the_fixed_sizes():
    ds = generate_synth_fundus(SynthFundusConfig(seed=3), 12, 4)
    assert ds.images.shape[1:] == (1, 16, 16)
    cfg = P.StackConfig(ae=AeTrainConfig(iterations=0), diffusion=DiffusionTrainConfig(iterations=0))
    stack = P.train_generative_stack(ds, cfg, RngStream(5))
    assert stack.ae.latent_shape == (4, 4, 4) and stack.ae.enc1.w.data.shape[0] == 16
    unet = stack.denoiser
    assert unet.data_shape == (4, 4, 4) and unet.depth == 1
    assert unet.stem.w.data.shape[0] == 16 and unet.emb_dim == 32
    assert stack.sched.T == 1000 and (stack.sched.beta[0], stack.sched.beta[-1]) == (1e-4, 0.02)


# the most whole-batch bytes a sampled row holds at once: its two latents (512 B each) and
# its decoded 16x16 image (2 KB) during the last decode pass, or two copies of that image
# while the decoded blocks are joined
SAMPLER_BYTES_PER_ROW = 4096


def test_sampling_peak_memory_does_not_grow_with_the_batch():
    # the pipeline's model sizes, untrained. Past one network pass, the peak grows only by
    # the arrays the sampler holds whole; one unblocked denoiser pass adds about 52 KB a row
    stack = P.GenerativeStack(
        ae=L.Autoencoder(16, 1, 16, 4, RngStream(0)),
        denoiser=UNetDenoiser((4, 4, 4), 16, RngStream(1), emb_dim=32),
        sched=linear_schedule(1000),
    )
    sample = lambda n: stack.sample_class(n, 1, GuidanceSpec(3.0), SampleMethod("ddim", steps=2), RngStream(2))  # noqa: E731
    sample(250)  # warm numpy's and the engine's caches, which the first pass fills
    peak_250, peak_1000 = (_peak_bytes(lambda: sample(n)) for n in (250, 1000))
    assert peak_1000 - peak_250 <= 750 * SAMPLER_BYTES_PER_ROW


def test_sample_class_reaches_sample_raw_and_decode_through_their_modules(monkeypatch):
    # a tracer wraps these module attributes; a caller holding its own reference would skip their spans
    calls = []
    for module, name in ((D, "sample_raw"), (L, "decode")):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _fn=fn, _name=name, **k: calls.append(_name) or _fn(*a, **k))
    stack = P.GenerativeStack(
        ae=L.Autoencoder(16, 1, 8, 4, RngStream(0)),
        denoiser=UNetDenoiser((4, 4, 4), 8, RngStream(1), emb_dim=8),
        sched=linear_schedule(20),
    )
    out = stack.sample_class(3, 1, GuidanceSpec(3.0), SampleMethod("ddim", steps=2), RngStream(2))
    assert out.shape == (3, 1, 16, 16)
    assert calls == ["sample_raw", "decode"]


@pytest.mark.parametrize("counts", [(3,), (3, 4, 5), (1.5, 2), (3, -1), (True, 2), ("3", 4), 3])
def test_plan_rejects_target_counts_that_are_not_a_pair_of_whole_numbers(counts):
    # (3,) would fail only at generation, after the baseline and the stack had trained; (3, 4, 5) would drop the 5
    with pytest.raises(ValueError, match="^target_counts must"):
        P.GenerationPlan(target_counts=counts)


@pytest.mark.parametrize("gen_batch", [0, -3])
def test_plan_rejects_a_generation_batch_below_one(gen_batch):
    # a batch of 0 never adds to the attempts, so generation would never return
    with pytest.raises(ValueError, match="gen_batch"):
        P.GenerationPlan(gen_batch=gen_batch)


@pytest.mark.parametrize(
    "config, bad",
    [
        (GuidanceSpec, {"w": float("nan")}),
        (GuidanceSpec, {"w": float("inf")}),
        (GuidanceSpec, {"w": -1.0}),
        (P.GenerationPlan, {"max_attempts_factor": float("nan")}),
        (P.GenerationPlan, {"max_attempts_factor": float("inf")}),
        (SampleMethod, {"steps": 0}),
        (SampleMethod, {"steps": -2}),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else repr(v),
)
def test_generation_settings_reject_values_that_would_fail_only_at_generation(config, bad):
    # each would be accepted here and fail in sampling, after the baseline and the stack had trained
    with pytest.raises(ValueError, match=f"^{next(iter(bad))} must"):
        config(**bad)


def test_plan_rejects_more_ddim_steps_than_the_schedule_has():
    # ddim_timesteps would raise only at generation, after the baseline and the stack had trained
    with pytest.raises(ValueError, match="^steps must"):
        P.GenerationPlan(method=SampleMethod(steps=P.TIMESTEPS + 1))


def test_generation_settings_accept_their_bounds():
    plan = P.GenerationPlan(guidance=GuidanceSpec(w=0.0), method=SampleMethod(steps=1), max_attempts_factor=1.0)
    assert plan.attempt_budget(1) == plan.target_counts[1]
    P.GenerationPlan(method=SampleMethod(steps=P.TIMESTEPS))
    P.GenerationPlan(method=SampleMethod("ddpm", steps=P.TIMESTEPS + 1))  # DDPM ignores steps
    P.GenerationPlan(target_counts=(0, 0))
    P.GenerationPlan(target_counts=(np.int64(3), np.int32(0)))


def test_attempt_budget_is_the_factor_times_the_target_rounded_up():
    plan = P.GenerationPlan(target_counts=(3, 0), max_attempts_factor=2.5)
    assert (plan.attempt_budget(0), plan.attempt_budget(1)) == (8, 0)


def test_shortfall_error_survives_pickling():
    partial = generate_synth_fundus(SynthFundusConfig(seed=1), 3, 1)
    stats = P.GenerationStats(requested=(5, 5), attempted=(10, 10), kept=(3, 1))
    err = pickle.loads(pickle.dumps(P.GenerationShortfallError("short", partial, stats)))
    assert type(err) is P.GenerationShortfallError and str(err) == "short"
    assert err.stats == stats and np.array_equal(err.partial.images, partial.images)


# ---------------------------------------------------------------------------
# the two lanes
# ---------------------------------------------------------------------------


@pytest.fixture
def forks(monkeypatch):
    """Counts the pipeline's forks in this process, with two CPUs seen; a fork
    asked for in a worker raises there, and the error arrives here."""
    calls = []
    real_fork = os.fork
    parent = os.getpid()

    def fork():
        if os.getpid() != parent:
            raise AssertionError("a worker started a worker")
        calls.append(1)
        return real_fork()

    monkeypatch.setattr(P.os, "fork", fork)
    monkeypatch.setattr(P, "_usable_cpus", lambda: 2)
    return calls


def _cpus(monkeypatch, n):
    monkeypatch.setattr(P, "_usable_cpus", lambda: n)


def _run_outputs(experiment):
    """Reports, generation stats without their wall time, and every classifier's weights."""
    ctx = _tiny_context()
    out = experiment(_tiny_splits(3), RngStream(3), ctx)
    if isinstance(out, P.DiffuPTResult):
        out = (out.pretrain_val, out.val, out.test, out.synthetic, replace(out.generation_stats, sampling_seconds=0.0))
    return repr(out), [m.weight_bytes() for m in ctx.models]


COMPARE_METHODS = ALL_METHODS[:6]  # the benchmark's compare rows

# each experiment and its forks: the baseline beside the stack, class 1 beside
# class 0, and one for a comparison's rows (no row forks while their worker runs)
EXPERIMENTS = {
    "diffupt_run": (lambda s, r, c: P.diffupt_run(s, c.diffupt_cfg, r, ctx=c), 2),
    "filtering_ablation": (lambda s, r, c: P.filtering_ablation(s, r, ctx=c), 2),
    "compare_rows": (lambda s, r, c: P.run_comparison(s, COMPARE_METHODS, r, ctx=c), 1),
    "all_methods": (lambda s, r, c: P.run_comparison(s, ALL_METHODS, r, ctx=c), 2),
    "augmentation_sweep": (lambda s, r, c: P.augmentation_sweep(s, [0, 4, 8], r, ctx=c), 2),
}


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_worker_and_inline_runs_agree_bitwise(name, forks, monkeypatch):
    experiment, n_forks = EXPERIMENTS[name]
    in_worker = _run_outputs(experiment)
    assert len(forks) == n_forks
    _cpus(monkeypatch, 1)
    assert _run_outputs(experiment) == in_worker
    _cpus(monkeypatch, 2)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert _run_outputs(experiment) == in_worker
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert len(forks) == n_forks  # neither one CPU nor a second thread started a worker


def test_no_worker_for_a_side_without_work(forks):
    P.run_comparison(_tiny_splits(3), ["gen_augment(4)"], RngStream(3), ctx=_tiny_context())
    assert len(forks) == 1  # the models side by side; class 0 has no target


def test_worker_cannot_start_another_worker(forks):
    inner = P._lanes([lambda: 1, lambda: P._lanes([os.getpid, os.getpid])])
    assert len(forks) == 1
    assert inner[1][0] == inner[1][1] != os.getpid()
    # nor can this process while its worker runs
    inner = P._lanes([lambda: P._lanes([os.getpid, os.getpid]), lambda: 1])
    assert len(forks) == 2
    assert inner[0] == [os.getpid(), os.getpid()]


def test_lanes_split_contiguously_and_keep_job_order(forks):
    jobs = [lambda i=i: (i, os.getpid()) for i in range(5)]
    out = P._lanes(jobs[:2] + [None] + jobs[2:])
    assert len(forks) == 1
    assert [o and o[0] for o in out] == [0, 1, None, 2, 3, 4]
    pids = [o[1] for o in out if o]
    assert pids[:3] == [os.getpid()] * 3 and pids[3] == pids[4] != os.getpid()


@pytest.mark.parametrize("labels", [["diffupt", "normal"], ["normal", "diffupt"]], ids=["here", "in_worker"])
def test_one_lane_fork_per_comparison_and_none_while_its_worker_runs(forks, labels):
    P.run_comparison(_tiny_splits(3), labels, RngStream(3), ctx=_tiny_context())
    # the shared models beside each other, then the rows; diffupt's two classes
    # are drawn inline in whichever lane has the row
    assert len(forks) == 2


def _diverge():
    raise DivergenceError(f"diverged in process {os.getpid()}")


class _NeedsTwoArgs(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a} {b}")


def _raise_unloadable():
    raise _NeedsTwoArgs("cannot", "unpickle")  # pickles, but its __init__ fails on unpickling


def _raise_unpicklable():
    raise ValueError(lambda: None)


def test_worker_exception_arrives_with_its_type(forks):
    with pytest.raises(DivergenceError, match="diverged in process") as info:
        P._lanes([lambda: 1, _diverge])
    assert f"process {os.getpid()}" not in str(info.value)
    assert "_diverge" in str(info.value.__cause__)  # the worker's traceback


@pytest.mark.parametrize("raiser", [_raise_unloadable, _raise_unpicklable])
def test_worker_exception_that_cannot_cross_carries_the_traceback(forks, raiser):
    with pytest.raises(RuntimeError, match="could not be sent back") as info:
        P._lanes([lambda: 1, raiser])
    assert "Traceback" in str(info.value) and raiser.__name__ in str(info.value)


@pytest.mark.parametrize(
    "die, status",
    [(lambda: os._exit(3), "exited with status 3"), (lambda: os.kill(os.getpid(), signal.SIGKILL), "signal 9")],
)
def test_dead_worker_raises_child_process_error(forks, die, status):
    with pytest.raises(ChildProcessError, match=status):
        P._lanes([lambda: 1, die])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_no_child_is_left_after_success_or_a_failure_here(forks, monkeypatch):
    ctx = _tiny_context()
    ctx.ensure_models(_tiny_splits(3), RngStream(3))
    assert len(forks) == 1 and ctx.baseline.trained and ctx.stack is not None
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

    def broken_stack(*args):
        raise DivergenceError("stack diverged")

    monkeypatch.setattr(P, "train_generative_stack", broken_stack)
    ctx = _tiny_context()
    with pytest.raises(DivergenceError, match="stack diverged"):
        ctx.ensure_models(_tiny_splits(3), RngStream(3))
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _diverging_runner(label):
    """A runner that builds its classifier and whose job raises ``DivergenceError`` naming ``label``."""

    def run(splits, ctx, rng):
        model = ctx.new_classifier(splits, rng.split("init"))

        def job():
            raise DivergenceError(f"{label} diverged in process {os.getpid()}")

        return model, job

    return run


@pytest.mark.parametrize(
    "failing",
    [["weighted_ce"], ["smote_augment"], ["weighted_ce", "multi_stage+sampler"], ["multi_stage+sampler", "smote_augment"]],
    ids=["here", "in_worker", "both_lanes", "twice_in_worker"],
)
def test_earliest_failing_row_raises_with_its_type(forks, monkeypatch, failing):
    for label in failing:
        monkeypatch.setitem(P.METHODS, label, _diverging_runner(label))
    ctx = _tiny_context()
    with pytest.raises(DivergenceError, match=f"^{re.escape(failing[0])} diverged") as info:
        P.run_comparison(_tiny_splits(3), COMPARE_METHODS, RngStream(3), ctx=ctx)
    in_worker = COMPARE_METHODS.index(failing[0]) >= 3
    assert (f"process {os.getpid()}" not in str(info.value)) == in_worker
    assert len(forks) == 1 and len(ctx.models) == 6  # every row's classifier was built here first
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # a failure in this process's lane killed and reaped the worker
