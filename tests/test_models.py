"""Autoencoder and classifier tests: chunked autoencoder passes, decoupled head retraining."""

import tracemalloc

import numpy as np
import pytest

from diffupt import classifier as C
from diffupt.classifier import ClassifierModel, TrainRegime, multi_stage_retrain, train_classifier
from diffupt.data import SamplerSpec, SynthFundusConfig, generate_synth_fundus
from diffupt.latentae import Autoencoder, decode, encode
from diffupt.numcore import RngStream, Tensor, no_grad


@pytest.mark.parametrize("rows", [1, 63, 64, 65, 454])  # around the 64-row pass, and the report's 454
def test_chunked_autoencoder_passes_equal_one_pass(rows):
    ae = Autoencoder(16, 1, 16, 4, RngStream(0))
    images = RngStream(1).uniform((rows, 1, 16, 16))
    latents = RngStream(2).normal((rows, 4, 4, 4))
    with no_grad():
        assert np.array_equal(encode(ae, images), ae.encode_t(Tensor(images)).data)
        assert np.array_equal(decode(ae, latents), ae.decode_t(Tensor(latents)).data)


def test_decode_runs_in_bounded_memory():
    ae = Autoencoder(16, 1, 16, 4, RngStream(0))
    latents = RngStream(2).normal((454, 4, 4, 4))  # the reconstruction report's training rows
    tracemalloc.start()
    try:
        decode(ae, latents)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24e6  # one 454-row pass peaks near 77 MB


def _stage_one():
    ds = generate_synth_fundus(SynthFundusConfig(seed=4), 40, 16)
    model = ClassifierModel(ds.images.shape[1:], RngStream(5))
    train_classifier(model, ds, TrainRegime(iterations=4, batch=8), RngStream(6))
    return model, ds


def test_stage_two_trains_only_the_head_and_leaves_no_feature_gradients():
    model, ds = _stage_one()
    multi_stage_retrain(model, ds, RngStream(7), val_ds=ds, iterations=5, batch=8)
    assert all(p.tensor.grad is None and p.tensor.requires_grad for p in model.feature_parameters())

    # reference: the same head retrain with the features left trainable but not updated
    ref, _ = _stage_one()
    rng = RngStream(7)
    ref.reinit_head(rng.split("head-reinit"))
    regime = TrainRegime(loss="bce", sampler=SamplerSpec("class_weighted"), lr=1e-3, iterations=5, batch=8)
    train_classifier(ref, ds, regime, rng.split("stage2"), val_ds=ds, params=ref.head.parameters())
    assert model.weight_bytes() == ref.weight_bytes()


def test_stage_two_unfreezes_features_after_an_error(monkeypatch):
    model, ds = _stage_one()

    def fail(*args, **kwargs):
        raise C.DivergenceError("stage two diverged")

    monkeypatch.setattr(C, "train_classifier", fail)
    with pytest.raises(C.DivergenceError):
        multi_stage_retrain(model, ds, RngStream(7), iterations=5, batch=8)
    assert all(p.tensor.requires_grad for p in model.feature_parameters())
