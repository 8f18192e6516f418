"""Pipeline bookkeeping tests on tiny configurations."""

import os
import pickle
import signal
import threading
from dataclasses import replace

import numpy as np
import pytest

from diffupt import pipeline as P
from diffupt.classifier import TrainRegime
from diffupt.data import SynthFundusConfig, generate_synth_fundus, stratified_split
from diffupt.diffusion import DiffusionTrainConfig, DivergenceError, SampleMethod
from diffupt.latentae import AeTrainConfig
from diffupt.numcore import RngStream


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


def test_shortfall_error_survives_pickling():
    partial = generate_synth_fundus(SynthFundusConfig(seed=1), 3, 1)
    stats = P.GenerationStats(requested=(5, 5), attempted=(10, 10), kept=(3, 1))
    err = pickle.loads(pickle.dumps(P.GenerationShortfallError("short", partial, stats)))
    assert type(err) is P.GenerationShortfallError and str(err) == "short"
    assert err.stats == stats and np.array_equal(err.partial.images, partial.images)


# ---------------------------------------------------------------------------
# the side-by-side worker
# ---------------------------------------------------------------------------


@pytest.fixture
def forks(monkeypatch):
    """Counts the pipeline's forks; ``cpus`` sets the CPU count the pipeline sees."""
    calls = []
    real_fork = os.fork

    def fork():
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


EXPERIMENTS = {
    "diffupt_run": lambda s, r, c: P.diffupt_run(s, c.diffupt_cfg, r, ctx=c),
    "filtering_ablation": lambda s, r, c: P.filtering_ablation(s, r, ctx=c),
}


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_worker_and_inline_runs_agree_bitwise(name, forks, monkeypatch):
    experiment = EXPERIMENTS[name]
    in_worker = _run_outputs(experiment)
    assert len(forks) == 2  # the baseline beside the stack, class 1 beside class 0
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
    assert len(forks) == 2  # neither one CPU nor a second thread started a worker


def test_no_worker_for_a_side_without_work(forks):
    P.run_comparison(_tiny_splits(3), ["gen_augment(4)"], RngStream(3), ctx=_tiny_context())
    assert len(forks) == 1  # the models side by side; class 0 has no target


def test_worker_cannot_start_another_worker(forks):
    inner = P._side_by_side(lambda: 1, lambda: P._side_by_side(os.getpid, os.getpid))
    assert len(forks) == 1
    assert inner[1][0] == inner[1][1] != os.getpid()


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
        P._side_by_side(lambda: 1, _diverge)
    assert f"process {os.getpid()}" not in str(info.value)
    assert "_diverge" in str(info.value.__cause__)  # the worker's traceback


@pytest.mark.parametrize("raiser", [_raise_unloadable, _raise_unpicklable])
def test_worker_exception_that_cannot_cross_carries_the_traceback(forks, raiser):
    with pytest.raises(RuntimeError, match="could not be sent back") as info:
        P._side_by_side(lambda: 1, raiser)
    assert "Traceback" in str(info.value) and raiser.__name__ in str(info.value)


@pytest.mark.parametrize(
    "die, status",
    [(lambda: os._exit(3), "exited with status 3"), (lambda: os.kill(os.getpid(), signal.SIGKILL), "signal 9")],
)
def test_dead_worker_raises_child_process_error(forks, die, status):
    with pytest.raises(ChildProcessError, match=status):
        P._side_by_side(lambda: 1, die)
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
