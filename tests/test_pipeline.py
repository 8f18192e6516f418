"""Pipeline bookkeeping tests on tiny configurations."""

from diffupt import pipeline as P
from diffupt.classifier import TrainRegime
from diffupt.data import SynthFundusConfig, generate_synth_fundus, stratified_split
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
