"""Pipeline bookkeeping tests on tiny configurations."""

import numpy as np
import pytest

from diffupt import pipeline as P
from diffupt.classifier import TrainRegime
from diffupt.data import SynthFundusConfig, generate_synth_fundus, stratified_split
from diffupt.diffusion import DiffusionTrainConfig, SampleMethod
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
