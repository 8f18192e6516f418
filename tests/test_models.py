"""Model tests: network passes in row blocks, the autoencoder's reconstruction
report, decoupled head retraining, training-config checks, the packed
parameter buffer and fused Adam, non-finite weights."""

import tracemalloc

import numpy as np
import pytest

from diffupt import classifier as C
from diffupt import diffusion as D
from diffupt import latentae as L
from diffupt import pipeline as P
from diffupt.classifier import ClassifierModel, TrainRegime, bce_loss, multi_stage_retrain, train_classifier
from diffupt.data import SynthFundusConfig, generate_synth_fundus
from diffupt.diffusion import DiffusionTrainConfig, UNetDenoiser, diffusion_loss, linear_schedule, sinusoidal_embedding
from diffupt.latentae import AeTrainConfig, Autoencoder, decode, encode, reconstruction_report
from diffupt.metrics import ssim_map
from diffupt.numcore import Linear, NonFiniteError, Parameter, RngStream, ShapeError, Tensor, adam_step, backward, no_grad
from diffupt.numcore import nn
from diffupt.numcore.tensor import _sigmoid_np
from test_numcore import conv2d_bruteforce


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
    assert peak < 8e6  # one 454-row pass peaks near 21 MB, 64-row blocks near 4.2 MB


def _report_in_one_pass(ae, images, z, split):
    """The oracle: ``reconstruction_report`` from one decoder pass over every row."""
    with no_grad():
        recon = ae.decode_t(Tensor(z)).data
    return (split, float(np.mean((recon - images) ** 2)), float(np.mean(ssim_map(images, np.clip(recon, 0.0, 1.0)))))


@pytest.mark.parametrize("rows", [1, 63, 64, 65, 129, 454])  # around the 64-row blocks, and the report's 454
def test_reconstruction_report_equals_one_pass_bitwise(rows):
    ae = _randomized(Autoencoder(16, 1, 16, 4, RngStream(0)))
    images = RngStream(1).uniform((rows, 1, 16, 16))
    z = encode(ae, images)
    assert repr(reconstruction_report(ae, images, z, "train")) == repr(_report_in_one_pass(ae, images, z, "train"))


def test_reconstruction_report_memory_grows_by_its_two_buffers():
    # a squared error per pixel (2,048 bytes an image) and an SSIM value per
    # 8x8 window (648 bytes); decoding and scoring all rows at once took 16.5 KB an image
    ae = Autoencoder(16, 1, 16, 4, RngStream(0))
    peaks = {}
    for rows in (504, 4000):
        images, z = RngStream(1).uniform((rows, 1, 16, 16)), RngStream(2).normal((rows, 4, 4, 4))
        peaks[rows] = _peak_bytes(lambda: reconstruction_report(ae, images, z, "train"))
    assert (peaks[4000] - peaks[504]) / (4000 - 504) <= 3 * 1024


class _ZeroNoise:
    """A denoiser that predicts zero noise and counts its passes."""

    def __init__(self, data_shape):
        self.data_shape = data_shape
        self.calls = 0

    def predict(self, x, t, y):
        self.calls += 1
        return np.zeros_like(x)


_SAMPLING = (D.GuidanceSpec(3.0), D.SampleMethod("ddim", steps=3), linear_schedule(20))


def test_latent_sample_of_no_rows_runs_no_denoiser_pass():
    ae = Autoencoder(16, 1, 8, 4, RngStream(0))
    denoiser = _ZeroNoise(ae.latent_shape)
    assert L.latent_diffusion_sample(ae, denoiser, 0, 1, *_SAMPLING, RngStream(4)).shape == (0, 1, 16, 16)
    assert denoiser.calls == 0


def test_latent_sample_is_its_decoded_latents_clamped_into_the_unit_interval():
    ae = _randomized(Autoencoder(16, 1, 8, 4, RngStream(0)))
    ae.latent_shift[...], ae.latent_scale[...] = 0.5, 2.0
    denoiser = _ZeroNoise(ae.latent_shape)
    out = L.latent_diffusion_sample(ae, denoiser, 5, 1, *_SAMPLING, RngStream(4))
    raw = decode(ae, L.unwhiten(ae, D.sample_raw(denoiser, 5, 1, *_SAMPLING, RngStream(4))))
    assert raw.min() < 0.0 and raw.max() > 1.0  # so the clamp has work to do
    assert out.min() >= 0.0 and out.max() <= 1.0
    assert np.array_equal(out, np.clip(raw, 0.0, 1.0))


def test_unwhiten_inverts_whiten():
    ae = Autoencoder(16, 1, 8, 4, RngStream(0))
    ae.latent_shift[...] = [0.5, -1.25, 3.0, 40.0]
    ae.latent_scale[...] = [2.0, 0.3, 1e-3, 7.5]
    z = RngStream(1).normal((5, 4, 4, 4))
    assert not np.allclose(L.whiten(ae, z), z)
    assert np.allclose(L.unwhiten(ae, L.whiten(ae, z)), z, rtol=1e-12, atol=1e-12)


def test_latent_sample_rejects_a_denoiser_of_other_latents():
    ae = Autoencoder(16, 1, 8, 4, RngStream(0))
    with pytest.raises(ShapeError, match="latents"):
        L.latent_diffusion_sample(ae, _ZeroNoise((4, 2, 2)), 3, 1, *_SAMPLING, RngStream(4))


def _one_pass(net, x, *per_row):
    """The oracle: ``net`` called once on every row, without gradients; at an
    odd row count on a copy of the last row too, whose output is dropped."""
    rows = np.minimum(np.arange(len(x) + len(x) % 2), len(x) - 1)
    with no_grad():
        return net(Tensor(x[rows]), *(r[rows] for r in per_row)).data[: len(x)]


def _denoiser_pass(rows, model=None):
    model = model or _randomized(_unet(3))
    rng = RngStream(rows)
    x, t, y = rng.normal((rows, 4, 4, 4)), rng.integers((rows,), 1, 51), rng.integers((rows,), 0, 3)
    return lambda: model.predict(x, t, y), lambda: _one_pass(model, x, t, y)


def _classifier_pass(rows, model=None):
    model = model or _randomized(_classifier(3))
    x = RngStream(rows).uniform((rows, 1, 16, 16))
    return lambda: model.predict_proba(x), lambda: _sigmoid_np(_one_pass(model.logits_t, x))


def _features_pass(rows):
    model = _randomized(_classifier(3))
    x = RngStream(rows).uniform((rows, 1, 16, 16))
    return lambda: model.extract_features(x), lambda: _one_pass(model.features_t, x)


def _encode_pass(rows):
    ae = _randomized(_autoencoder(3))
    x = RngStream(rows).uniform((rows, 1, 16, 16))
    return lambda: encode(ae, x), lambda: _one_pass(ae.encode_t, x)


def _decode_pass(rows):
    ae = _randomized(_autoencoder(3))
    z = RngStream(rows).normal((rows, 4, 4, 4))
    return lambda: decode(ae, z), lambda: _one_pass(ae.decode_t, z)


# path: n rows -> (blocked call, one-pass oracle)
BLOCKED_PASSES = {
    "denoiser.predict": _denoiser_pass,
    "predict_proba": _classifier_pass,
    "extract_features": _features_pass,
    "encode": _encode_pass,
    "decode": _decode_pass,
}


# none, under one block, one block, and counts whose short last part joins the block before it
ANY_ROWS = (0, 1, 2, 6, 7, 8, 9, 10, 16, 17, 18, 21, 26)


@pytest.mark.parametrize("path, rows", [(path, rows) for path in BLOCKED_PASSES for rows in ANY_ROWS])
def test_passes_in_row_blocks_equal_one_pass_bitwise(path, rows, monkeypatch):
    monkeypatch.setattr(nn, "PASS_ROWS", nn.BLOCK_ROW_STEP)  # the smallest block
    blocked, one_pass = BLOCKED_PASSES[path](rows)
    out, oracle = blocked(), one_pass()
    assert out.shape == oracle.shape and out.shape[0] == rows
    assert np.array_equal(out, oracle)


def test_a_rows_noise_prediction_does_not_depend_on_how_many_rows_share_its_pass():
    # at the UNet's 2x2 level a row gives a GEMM 4 columns; an odd-row pass would put
    # its last columns through OpenBLAS's narrower tail kernel
    model = UNetDenoiser((4, 4, 4), 16, RngStream(3), emb_dim=32)
    rng = RngStream(40)
    x, t, y = rng.normal((72, 4, 4, 4)), rng.integers((72,), 1, 51), rng.integers((72,), 0, 3)
    for n in range(1, 70, 2):
        odd = model.predict(x[:n], t[:n], y[:n])
        for even in (n + 1, n + 3):
            assert np.array_equal(odd, model.predict(x[:even], t[:even], y[:even])[:n]), (n, even)


LARGER_PASS_ROWS = 258


def _pipeline_sized_pass(path):
    """(n -> the blocked call on the first n rows, one pass over all
    ``LARGER_PASS_ROWS`` rows) of a randomized model at the pipeline's sizes."""
    ae = _randomized(Autoencoder(16, 1, P.AE_BASE_CHANNELS, P.LATENT_CHANNELS, RngStream(3)))
    rng = RngStream(60)
    latents = rng.normal((LARGER_PASS_ROWS, *ae.latent_shape))
    images = rng.uniform((LARGER_PASS_ROWS, 1, 16, 16))
    if path == "denoiser.predict":
        unet = _randomized(UNetDenoiser(ae.latent_shape, P.UNET_BASE_CHANNELS, RngStream(3), emb_dim=P.UNET_EMB_DIM))
        t, y = rng.integers((LARGER_PASS_ROWS,), 1, P.TIMESTEPS), rng.integers((LARGER_PASS_ROWS,), 0, 3)
        return lambda n: unet.predict(latents[:n], t[:n], y[:n]), _one_pass(unet, latents, t, y)
    if path == "encode":
        return lambda n: encode(ae, images[:n]), _one_pass(ae.encode_t, images)
    if path == "decode":
        return lambda n: decode(ae, latents[:n]), _one_pass(ae.decode_t, latents)
    model = _randomized(ClassifierModel((1, 16, 16), RngStream(3)))
    if path == "predict_proba":
        return lambda n: model.predict_proba(images[:n]), _sigmoid_np(_one_pass(model.logits_t, images))
    return lambda n: model.extract_features(images[:n]), _one_pass(model.features_t, images)


@pytest.mark.parametrize("path", ["denoiser.predict", "encode", "decode", "extract_features", "predict_proba"])
def test_each_row_at_the_real_block_sizes_equals_that_row_of_one_larger_pass(path):
    # the passes run at the real ``PASS_ROWS``, so an n-row call
    # cuts its blocks elsewhere than the one larger pass does; every n is tried,
    # since a path can be wrong at a few row counts only
    blocked, larger = _pipeline_sized_pass(path)
    for n in range(1, LARGER_PASS_ROWS):
        out = blocked(n)
        assert out.shape[0] == n
        assert np.array_equal(out, larger[:n]), n


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# the passes at the pipeline's model sizes
PIPELINE_SIZED = {
    "denoiser.predict": lambda rows: _denoiser_pass(rows, UNetDenoiser((4, 4, 4), 16, RngStream(3), emb_dim=32)),
    "predict_proba": lambda rows: _classifier_pass(rows, ClassifierModel((1, 16, 16), RngStream(3))),
}


@pytest.mark.parametrize("path", PIPELINE_SIZED)
def test_pass_peak_memory_does_not_grow_with_its_rows(path):
    # one pass over all rows would peak about eight times higher
    block = nn.PASS_ROWS
    one_block, eight_blocks = (_peak_bytes(PIPELINE_SIZED[path](rows)[0]) for rows in (block, 8 * block))
    assert eight_blocks <= 1.3 * one_block


def _stage_one():
    ds = generate_synth_fundus(SynthFundusConfig(seed=4), 40, 16)
    model = ClassifierModel(ds.images.shape[1:], RngStream(5))
    train_classifier(model, ds, TrainRegime(iterations=4, batch=8), RngStream(6))
    return model, ds


_BAD_LRS = [{"lr": lr} for lr in (-1.0, 0.0, float("nan"), float("inf"))]  # uphill, standing still or non-finite


@pytest.mark.parametrize(
    "bad",
    [{"batch": 0}, {"eval_every": 0}, {"iterations": -1}, *_BAD_LRS],
    ids=["batch", "eval_every", "iterations", *(f"lr={b['lr']}" for b in _BAD_LRS)],
)
def test_regime_rejects_sizes_that_cannot_train(bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        TrainRegime(**bad)


@pytest.mark.parametrize(
    "config, bad",
    [
        (AeTrainConfig, {"iterations": -1}),
        (AeTrainConfig, {"batch": 0}),
        (DiffusionTrainConfig, {"iterations": -1}),
        (DiffusionTrainConfig, {"batch": 0}),
        (DiffusionTrainConfig, {"p_uncond": 1.5}),
        (DiffusionTrainConfig, {"p_uncond": -0.1}),
        (DiffusionTrainConfig, {"p_uncond": float("nan")}),
        (DiffusionTrainConfig, {"ema_decay": 2.0}),
        (DiffusionTrainConfig, {"ema_decay": -1e-3}),
        *((config, bad) for config in (AeTrainConfig, DiffusionTrainConfig) for bad in _BAD_LRS),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else repr(v),
)
def test_generator_configs_reject_sizes_that_cannot_train(config, bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        config(**bad)


@pytest.mark.parametrize(
    "config, bad",
    [
        (TrainRegime, {"iterations": 2.5}),
        (TrainRegime, {"iterations": True}),
        (TrainRegime, {"batch": 2.5}),
        (TrainRegime, {"eval_every": np.float64(10.0)}),
        (AeTrainConfig, {"iterations": 1.5}),
        (AeTrainConfig, {"batch": True}),
        (DiffusionTrainConfig, {"iterations": 3.0}),
        (DiffusionTrainConfig, {"batch": 3.5}),
        (D.SampleMethod, {"steps": 2.5}),
        (P.GenerationPlan, {"gen_batch": 2.5}),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else repr(v),
)
def test_count_settings_reject_fractions_and_booleans(config, bad):
    # a fraction would fail only inside numpy at the first draw, and True would count as 1
    with pytest.raises(ValueError, match=f"^{next(iter(bad))} must be a whole number"):
        config(**bad)


def test_generator_configs_accept_their_bounds():
    AeTrainConfig(iterations=0, batch=1, lr=5e-324)
    for p in (0.0, 1.0):
        DiffusionTrainConfig(iterations=0, batch=1, lr=5e-324, p_uncond=p, ema_decay=p)
    TrainRegime(iterations=0, batch=1, eval_every=1, lr=5e-324)
    TrainRegime(iterations=np.int64(0), batch=np.int32(1), eval_every=np.uint8(1))


def _feature_parameters(model):
    return [p for name, p in model.named_parameters() if not name.startswith("head.")]


def test_stage_two_trains_only_the_head_and_leaves_no_feature_gradients():
    model, ds = _stage_one()
    features = [p.data.copy() for p in _feature_parameters(model)]
    head = [p.data.copy() for p in model.head.parameters()]
    multi_stage_retrain(model, ds, TrainRegime(iterations=10, batch=8), RngStream(7), val_ds=ds)
    for p, before in zip(_feature_parameters(model), features):
        assert p.data.tobytes() == before.tobytes() and p.tensor.grad is None
    assert all(not np.array_equal(p.data, before) for p, before in zip(model.head.parameters(), head))

    # reference: the same head retrain running the whole network on every batch
    ref, _ = _stage_one()
    rng = RngStream(7)
    ref.head.reset(rng.split("head-reinit"))
    regime = TrainRegime(balanced_sampler=True, lr=1e-3, iterations=5, batch=8)
    C._train(ref, ref.head.parameters(), ds.images, ref.logits_t, ds, regime, rng.split("stage2"), ds)
    assert model.weight_bytes() == ref.weight_bytes()


def test_stage_two_computes_the_training_features_once(monkeypatch):
    train = generate_synth_fundus(SynthFundusConfig(seed=4), 200, 100)  # five 64-row blocks
    val = generate_synth_fundus(SynthFundusConfig(seed=8), 30, 10)  # one block
    calls = []
    features_t = ClassifierModel.features_t

    def counted(self, x):
        calls.append(x.shape[0])
        return features_t(self, x)

    monkeypatch.setattr(ClassifierModel, "features_t", counted)
    for iterations in (10, 100):  # stage 2 runs 5 and 50: both validate once, at the end
        model = ClassifierModel(train.images.shape[1:], RngStream(5))
        model.trained = True
        calls.clear()
        multi_stage_retrain(model, train, TrainRegime(iterations=iterations, batch=8), RngStream(7), val_ds=val)
        assert calls == [64, 64, 64, 64, 44, 40]


# ---------------------------------------------------------------------------
# packed parameters and fused Adam
# ---------------------------------------------------------------------------


def adam_loop_reference(params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One parameter at a time: the update the fused ``adam_step`` must equal bitwise."""
    for p in params:
        gf = p.tensor.grad.reshape(-1)
        p.step_count += 1
        p.first_moment *= beta1
        p.first_moment += (1.0 - beta1) * gf
        p.second_moment *= beta2
        p.second_moment += (1.0 - beta2) * gf * gf
        m_hat = p.first_moment / (1.0 - beta1**p.step_count)
        v_hat = p.second_moment / (1.0 - beta2**p.step_count)
        p.tensor.data -= (lr * m_hat / (np.sqrt(v_hat) + eps)).reshape(p.shape)
        p.tensor.grad = None


def _classifier(seed):
    return ClassifierModel((1, 16, 16), RngStream(seed))


def _classifier_loss(model, rng):
    return bce_loss(model.logits_t(Tensor(rng.uniform((6, 1, 16, 16)))), (rng.uniform((6,)) < 0.5).astype(float))


def _head_loss(model, rng):
    """The loss of stage two: the head alone, on fixed feature rows."""
    logits = model.head(Tensor(rng.normal((6, model.feature_dim)))).reshape(-1)
    return bce_loss(logits, (rng.uniform((6,)) < 0.5).astype(float))


def _autoencoder(seed):
    return Autoencoder(16, 1, 8, 4, RngStream(seed))


def _autoencoder_loss(model, rng):
    x = Tensor(rng.uniform((6, 1, 16, 16)))
    diff = model.decode_t(model.encode_t(x)) - x
    return (diff * diff).mean()


def _unet(seed):
    return UNetDenoiser((4, 4, 4), 8, RngStream(seed), emb_dim=16)


def _unet_loss(model, rng):
    return diffusion_loss(model, rng.normal((6, 4, 4, 4)), rng.integers((6,), 0, 2), linear_schedule(50), rng)


MODELS = {"classifier": (_classifier, _classifier_loss), "autoencoder": (_autoencoder, _autoencoder_loss), "unet": (_unet, _unet_loss)}


def _train_pair(fused, looped, loss_of, params_of, steps=5, lr=1e-3):
    """``steps`` identical steps on two equal models: fused Adam on one, the loop on the other."""
    for step in range(steps):
        for model, update in ((fused, adam_step), (looped, adam_loop_reference)):
            backward(loss_of(model, RngStream(100 + step)))
            update(params_of(model), lr)
        assert fused.parameter_buffer.tobytes() == looped.parameter_buffer.tobytes()
        assert [p.step_count for p in fused.parameters()] == [p.step_count for p in looped.parameters()]


@pytest.mark.parametrize("name", MODELS)
def test_fused_adam_equals_the_per_parameter_loop_bitwise(name):
    build, loss_of = MODELS[name]
    fused, looped = build(3), build(3)
    _train_pair(fused, looped, loss_of, lambda m: m.parameters())
    assert all(p.step_count == 5 for p in fused.parameters())


def test_fused_adam_equals_the_loop_on_a_reinitialised_head():
    fused, looped = _classifier(3), _classifier(3)
    _train_pair(fused, looped, _classifier_loss, lambda m: m.parameters(), steps=2)
    for model in (fused, looped):
        model.head.reset(RngStream(9))
    _train_pair(fused, looped, _head_loss, lambda m: m.head.parameters())
    assert [p.step_count for p in fused.parameters()] == [2] * (len(fused.parameters()) - 2) + [5, 5]


def _non_runs():
    """Parameter lists that are not one run, each with every gradient set."""
    stepped = _classifier(3)  # the head at step 0 after two steps of the whole model
    _train_pair(stepped, _classifier(3), _classifier_loss, lambda m: m.parameters(), steps=2)
    stepped.head.reset(RngStream(9))
    params = _classifier(3).parameters()
    lists = {
        "two buffers": [Parameter(np.ones(2)), Parameter(np.ones(2))],
        "a gap": params[:1] + params[2:],
        "out of order": params[::-1],
        "two step counts": stepped.parameters(),
    }
    for ps in lists.values():
        for p in ps:
            p.tensor.grad = np.ones(p.shape)
    return lists


@pytest.mark.parametrize("case", ["two buffers", "a gap", "out of order", "two step counts"])
def test_adam_rejects_parameters_that_are_not_one_run(case):
    params = _non_runs()[case]
    before = [(p.buffer.copy(), p.step_count) for p in params]
    with pytest.raises(ValueError, match="one run"):
        adam_step(params, 1e-3)
    assert all(p.buffer.tobytes() == b.tobytes() and p.step_count == s for p, (b, s) in zip(params, before))


def test_reinit_head_draws_a_fresh_head_in_place():
    model = _classifier(3)
    buffer = model.parameter_buffer
    backward(_classifier_loss(model, RngStream(4)))
    adam_step(model.parameters(), 1e-3)
    model.head.reset(RngStream(9))
    fresh = Linear(model.feature_dim, 1, RngStream(9))
    assert model.parameter_buffer is buffer
    for p, q in zip(model.head.parameters(), fresh.parameters()):
        assert np.array_equal(p.data, q.data)
        assert not p.first_moment.any() and not p.second_moment.any() and p.step_count == 0
        assert np.shares_memory(p.data, buffer)


@pytest.mark.parametrize("shape", [(256,), (16, 16)])
def test_classifier_takes_only_chw_images(shape):
    with pytest.raises(ShapeError, match="C, H, W"):
        ClassifierModel(shape, RngStream(0))


def test_nan_in_a_classifier_weight_makes_predict_proba_raise():
    model = _classifier(3)
    model.mix.w.data[0, 0, 1, 1] = np.nan
    with pytest.raises(NonFiniteError):
        model.predict_proba(RngStream(4).uniform((3, 1, 16, 16)))


# an lr this large throws the weights so far after one step that the next forward overflows
_HUGE_LR = 1e150


def test_classifier_training_divergence_names_the_stage_and_the_iteration():
    ds = generate_synth_fundus(SynthFundusConfig(seed=4), 40, 16)
    model = ClassifierModel(ds.images.shape[1:], RngStream(5))
    with np.errstate(all="ignore"), pytest.raises(D.DivergenceError, match="^classifier training diverged at iteration 1: ") as info:
        train_classifier(model, ds, TrainRegime(iterations=5, batch=8, lr=_HUGE_LR), RngStream(6))
    assert isinstance(info.value.__cause__, NonFiniteError)


def test_autoencoder_training_divergence_names_the_stage_and_the_iteration():
    ds = generate_synth_fundus(SynthFundusConfig(seed=4), 40, 16)
    ae = Autoencoder(16, 1, 8, 4, RngStream(5))
    with np.errstate(all="ignore"), pytest.raises(D.DivergenceError, match="^autoencoder training diverged at iteration 1: ") as info:
        L.train_autoencoder(ae, ds, AeTrainConfig(iterations=5, batch=8, lr=_HUGE_LR), RngStream(6))
    assert isinstance(info.value.__cause__, NonFiniteError)


# ---------------------------------------------------------------------------
# NCHW forwards written from the definitions: the models' (C, H, W, B) insides
# must not show at their NCHW boundaries
# ---------------------------------------------------------------------------


def _silu(x):
    return x / (1.0 + np.exp(-x))


def _conv(layer, x):
    return conv2d_bruteforce(x, layer.w.data, stride=layer.stride) + layer.b.data[None, :, None, None]


def _up(x):
    return x.repeat(2, axis=2).repeat(2, axis=3)


def _linear(layer, x):
    return x @ layer.w.data + layer.b.data


def _classifier_logits(model, x):
    h = x
    for conv in model.convs:
        h = _silu(_conv(conv, h))
    features = _silu(_conv(model.mix, h)).mean(axis=(2, 3))
    return features, _linear(model.head, features).reshape(-1)


def _ae_encode(ae, x):
    return _conv(ae.enc3, _silu(_conv(ae.enc2, _silu(_conv(ae.enc1, x)))))


def _ae_decode(ae, z):
    h = _silu(_conv(ae.dec2, _up(_silu(_conv(ae.dec1, z)))))
    return _conv(ae.out, _up(h))


def _unet_eps(model, x, t, y):
    cond = _silu(_linear(model.time_proj, sinusoidal_embedding(t, model.emb_dim))) + model.class_embed.table.data[y]

    def block(b, h):
        h = _silu(_conv(b.conv1, h)) + _linear(b.proj, cond)[:, :, None, None]
        return _silu(_conv(b.conv2, h))

    h = _silu(_conv(model.stem, x))
    skips = []
    for b, down in zip(model.down_blocks, model.down_samplers):
        h = block(b, h)
        skips.append(h)
        h = _silu(_conv(down, h))
    h = block(model.mid, h)
    for conv, b in zip(model.up_convs, model.up_blocks):
        h = block(b, np.concatenate([_silu(_conv(conv, _up(h))), skips.pop()], axis=1))
    return _conv(model.head, h)


def _randomized(model):
    """``model`` with every parameter, biases too, drawn at random."""
    values = model.parameter_buffer[0]
    values[...] = RngStream(8).normal(values.shape, sd=0.3)
    return model


def _close(ours, ref):
    assert ours.shape == ref.shape
    assert np.abs(ours - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


def test_classifier_forward_equals_an_nchw_forward():
    model = _randomized(_classifier(3))
    x = RngStream(4).uniform((3, 1, 16, 16))  # B=3 is no channel count of the model
    features, logits = _classifier_logits(model, x)
    _close(model.extract_features(x), features)
    _close(model.predict_proba(x), 1.0 / (1.0 + np.exp(-logits)))


def test_autoencoder_forward_equals_an_nchw_forward():
    ae = _randomized(_autoencoder(3))
    x = RngStream(4).uniform((3, 1, 16, 16))
    z = RngStream(5).normal((3, 4, 4, 4))
    _close(encode(ae, x), _ae_encode(ae, x))
    _close(decode(ae, z), _ae_decode(ae, z))


def test_unet_forward_equals_an_nchw_forward():
    model = _randomized(_unet(3))
    rng = RngStream(4)
    x = rng.normal((3, 4, 4, 4))
    t, y = np.array([1, 20, 45]), np.array([0, 1, 2])
    _close(model.predict(x, t, y), _unet_eps(model, x, t, y))
