"""Data module tests: generation oracle, splits, weights, samplers, SMOTE."""

import tracemalloc

import numpy as np
import pytest

from diffupt import data
from diffupt.data import (
    IndexSampler,
    LabeledDataset,
    MissingClassError,
    SplitDeficitError,
    SynthFundusConfig,
    class_weights,
    concat_datasets,
    generate_synth_fundus,
    measure_cup_disc_ratio,
    smote_oversample,
    stratified_split,
)
from diffupt.numcore import RngStream


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def test_generate_empty():
    ds = generate_synth_fundus(SynthFundusConfig(), 0, 0)
    assert len(ds) == 0
    assert ds.class_counts == (0, 0)


def test_generate_table_ratio():
    ds = generate_synth_fundus(SynthFundusConfig(seed=1), 5000, 463)
    assert ds.class_counts == (5000, 463)
    assert ds.minority_fraction == pytest.approx(0.0847, abs=0.0005)


def test_generate_rejects_tiny_images():
    with pytest.raises(ValueError):
        SynthFundusConfig(image_size=4)


def test_generate_deterministic_given_seed():
    a = generate_synth_fundus(SynthFundusConfig(seed=9), 20, 20)
    b = generate_synth_fundus(SynthFundusConfig(seed=9), 20, 20)
    assert np.array_equal(a.images, b.images)
    c = generate_synth_fundus(SynthFundusConfig(seed=10), 20, 20)
    assert not np.array_equal(a.images, c.images)


def test_generate_values_in_unit_interval():
    ds = generate_synth_fundus(SynthFundusConfig(noise_sd=0.3, seed=2), 50, 50)
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0


def _render_by_expression(cfg, truth):
    """The surrogate's noise-free pixels as one whole-array expression (the
    rendering's reference; ``generate_synth_fundus`` computes them in place)."""
    ys, xs = np.mgrid[0 : cfg.image_size, 0 : cfg.image_size] + 0.5
    cx, cy, r_disc = truth["cx"][:, None, None], truth["cy"][:, None, None], truth["disc_radius"][:, None, None]
    d = np.sqrt((xs - cx) ** 2 + (ys - cy) ** 2)

    def soft(edge_r):
        return np.clip(0.5 + (edge_r - d) / cfg.edge_width, 0.0, 1.0)

    img = cfg.bg_level + (cfg.disc_level - cfg.bg_level) * soft(r_disc)
    img += (cfg.cup_level - cfg.disc_level) * soft(truth["cup_ratio"][:, None, None] * r_disc)
    return img


BLOCK = data._GEN_BLOCK_ROWS


@pytest.mark.parametrize(
    "cfg,counts",
    [
        pytest.param(SynthFundusConfig(seed=4), (30, 7), id="default"),
        pytest.param(SynthFundusConfig(image_size=20, edge_width=0.7, noise_sd=0.3, seed=5), (9, 12), id="wide-noisy"),
        pytest.param(SynthFundusConfig(seed=6), (BLOCK - 11, 10), id="block-1"),
        pytest.param(SynthFundusConfig(seed=6), (BLOCK - 10, 10), id="block"),
        pytest.param(SynthFundusConfig(seed=6), (BLOCK - 9, 10), id="block+1"),
        pytest.param(SynthFundusConfig(image_size=32, seed=7), (2 * BLOCK - 9, 10), id="2block+1"),
        pytest.param(SynthFundusConfig(seed=8), (2000, 400), id="compare-sized"),
    ],
)
def test_generated_images_are_bitwise_the_rendering_expression(cfg, counts):
    ds = generate_synth_fundus(cfg, *counts)
    # the pixel noise is the stream's sixth draw, after radii, two ratio draws and two centre offsets,
    # made here whole where the generator fills it block by block
    stream = RngStream(RngStream(cfg.seed).split("synth-fundus").seed, counter=5)
    noise = stream.normal((len(ds), cfg.image_size, cfg.image_size), 0.0, cfg.noise_sd)
    expected = np.clip(_render_by_expression(cfg, ds.truth) + noise, 0.0, 1.0)[:, None]
    assert np.array_equal(ds.images, expected)


def _generation_peak(n_negative, n_positive):
    """The generated set and tracemalloc's peak while generating it, after a
    small warm-up call so that one-off lazy imports do not count."""
    generate_synth_fundus(SynthFundusConfig(), 1, 1)
    tracemalloc.start()
    try:
        ds = generate_synth_fundus(SynthFundusConfig(), n_negative, n_positive)
        return ds, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_generation_peak_memory_is_about_one_output():
    ds, peak = _generation_peak(2000, 400)
    # the output, its per-image truth, and one block's distance and noise buffers
    # (1.27x; 2.06x with whole-set render buffers and noise, 4.2x with whole-array temporaries)
    assert peak <= 1.3 * ds.images.nbytes


def test_generation_temporaries_do_not_grow_with_the_image_count():
    def temporaries(n):
        ds, peak = _generation_peak(n - n // 6, n // 6)
        held = sum(a.nbytes for a in (ds.images, ds.labels, ds.provenance, *ds.truth.values()))
        return peak - held

    small, large = temporaries(2_400), temporaries(24_000)
    # block-sized buffers only; what grows is the centre offsets, two floats an
    # image (16 bytes, where an image is 2,048), kept until the truth is built
    assert large - small < 32 * (24_000 - 2_400)


def test_threshold_rule_on_measured_ratio():
    cfg = SynthFundusConfig(noise_sd=0.02, seed=3)
    ds = generate_synth_fundus(cfg, 300, 300)
    measured = measure_cup_disc_ratio(ds.images, cfg)
    acc = np.mean((measured > 0.5).astype(int) == ds.labels)
    assert acc >= 0.95


def test_measurement_tracks_ground_truth():
    cfg = SynthFundusConfig(noise_sd=0.02, seed=4)
    ds = generate_synth_fundus(cfg, 200, 200)
    measured = measure_cup_disc_ratio(ds.images, cfg)
    err = measured - ds.truth["cup_ratio"]
    assert abs(np.nanmean(err)) < 0.02
    assert np.nanstd(err) < 0.05


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------


def _paper_pool(seed=11):
    # pool sized to reproduce the reference three-way composition exactly
    return generate_synth_fundus(SynthFundusConfig(seed=seed), 37253 - 3621, 3621)


def test_split_replicates_reference_ratios():
    ds = _paper_pool()
    fr = (31047 / 37253, 4343 / 37253, 1863 / 37253)
    train, val, test = stratified_split(ds, fr, 0.2797, seed=0, val_minority_fraction=0.1085)
    assert len(train) == 31047 and len(val) == 4343 and len(test) == 1863
    assert train.class_counts == (28418, 2629)
    assert val.class_counts == (3872, 471)
    assert test.class_counts == (1342, 521)
    assert train.minority_fraction == pytest.approx(0.0847, abs=0.0001)
    assert val.minority_fraction == pytest.approx(0.1085, abs=0.0001)
    assert test.minority_fraction == pytest.approx(0.2797, abs=0.0001)


def test_split_all_train():
    ds = generate_synth_fundus(SynthFundusConfig(seed=6), 80, 20)
    train, val, test = stratified_split(ds, (1.0, 0.0, 0.0), 0.5, seed=1)
    assert len(train) == 100 and len(val) == 0 and len(test) == 0
    assert sorted(map(tuple, train.images.reshape(100, -1))) == sorted(map(tuple, ds.images.reshape(100, -1)))


@pytest.mark.parametrize("seed", range(50))
def test_split_disjoint_and_complete(seed):
    rng = RngStream(seed)
    n_pos = int(rng.integers((), 30, 120))
    n_neg = int(rng.integers((), 100, 400))
    f_test = float(rng.uniform((), 0.1, 0.3))
    f_val = float(rng.uniform((), 0.1, 0.3))
    ds = generate_synth_fundus(SynthFundusConfig(seed=seed, image_size=8), n_neg, n_pos)
    tmf = min(0.4, n_pos / max(1, round((n_neg + n_pos) * f_test)) * 0.5)
    train, val, test = stratified_split(ds, (1 - f_val - f_test, f_val, f_test), tmf, seed=seed)
    assert len(train) + len(val) + len(test) == len(ds)
    # multiset equality via sorted per-image byte signatures
    def sig(d):
        return sorted(im.tobytes() for im in d.images)
    combined = sorted(sig(train) + sig(val) + sig(test))
    assert combined == sig(ds)


def test_split_deficit_error_names_deficit():
    ds = generate_synth_fundus(SynthFundusConfig(seed=7), 90, 10)
    with pytest.raises(SplitDeficitError) as e:
        stratified_split(ds, (0.5, 0.0, 0.5), 0.9, seed=2)
    assert "deficit" in str(e.value)


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"fractions": (1.2, -0.1, -0.1)}, "fractions"),
        ({"fractions": (0.7, 0.0, 0.3), "test_minority_fraction": -0.2}, "test_minority_fraction"),
        ({"fractions": (0.7, 0.0, 0.3), "test_minority_fraction": 1.5}, "test_minority_fraction"),
        ({"val_minority_fraction": float("nan")}, "val_minority_fraction"),
    ],
    ids=["negative-fractions", "negative-test-minority", "test-minority-above-one", "nan-val-minority"],
)
def test_split_rejects_fractions_outside_the_unit_interval(kwargs, name):
    ds = generate_synth_fundus(SynthFundusConfig(seed=0, image_size=8), 60, 24)
    args = {"fractions": (0.7, 0.15, 0.15), "test_minority_fraction": 0.2, "seed": 0, **kwargs}
    with pytest.raises(ValueError, match=name):
        stratified_split(ds, **args)


def test_split_test_minority_within_one_percent():
    ds = generate_synth_fundus(SynthFundusConfig(seed=8), 800, 200)
    _, _, test = stratified_split(ds, (0.6, 0.2, 0.2), 0.28, seed=3)
    assert abs(test.minority_fraction - 0.28) <= 0.01


# ---------------------------------------------------------------------------
# class weights
# ---------------------------------------------------------------------------


def test_class_weights_balanced():
    ds = generate_synth_fundus(SynthFundusConfig(seed=9, image_size=8), 50, 50)
    assert class_weights(ds) == (1.0, 1.0)


def test_class_weights_reference_counts():
    ds = LabeledDataset(
        images=np.zeros((31047, 1, 8, 8)),
        labels=np.array([0] * 28418 + [1] * 2629),
        provenance=np.zeros(31047),
    )
    w_neg, w_pos = class_weights(ds)
    # direct formula N/(2*N_c) on the reference training counts
    assert w_neg == pytest.approx(0.5462, abs=1e-3)
    assert w_pos == pytest.approx(5.9044, abs=1e-3)


def test_class_weights_mean_one_identity():
    ds = generate_synth_fundus(SynthFundusConfig(seed=10, image_size=8), 173, 41)
    w_neg, w_pos = class_weights(ds)
    n_neg, n_pos = ds.class_counts
    mean = (w_neg * n_neg + w_pos * n_pos) / (n_neg + n_pos)
    assert mean == pytest.approx(1.0, abs=1e-12)


def test_class_weights_missing_class_errors():
    ds = generate_synth_fundus(SynthFundusConfig(seed=11, image_size=8), 10, 0)
    with pytest.raises(MissingClassError):
        class_weights(ds)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def test_uniform_sampler_share_matches_dataset():
    ds = generate_synth_fundus(SynthFundusConfig(seed=12, image_size=8), 915, 85)
    sampler = IndexSampler(ds, RngStream(0), balanced=False)
    idx = sampler.draw(10_000)
    share = ds.labels[idx].mean()
    assert share == pytest.approx(0.085, abs=0.01)


def test_weighted_sampler_equalizes_classes():
    ds = generate_synth_fundus(SynthFundusConfig(seed=13, image_size=8), 915, 85)
    sampler = IndexSampler(ds, RngStream(1), balanced=True)
    idx = sampler.draw(10_000)
    share = ds.labels[idx].mean()
    assert share == pytest.approx(0.5, abs=0.02)


def test_sampler_single_class_valid_indices():
    ds = generate_synth_fundus(SynthFundusConfig(seed=14, image_size=8), 25, 0)
    sampler = IndexSampler(ds, RngStream(2), balanced=False)
    idx = sampler.draw(500)
    assert idx.min() >= 0 and idx.max() < 25


def test_weighted_sampler_three_sigma_band():
    ds = generate_synth_fundus(SynthFundusConfig(seed=15, image_size=8), 900, 100)
    sampler = IndexSampler(ds, RngStream(3), balanced=True)
    n = 10_000
    share = ds.labels[sampler.draw(n)].mean()
    sigma = np.sqrt(0.25 / n)
    assert abs(share - 0.5) <= 3 * sigma


# ---------------------------------------------------------------------------
# SMOTE
# ---------------------------------------------------------------------------


def test_smote_midpoint_case():
    pts = np.array([[[[0.0, 0.0]]], [[[2.0, 2.0]]]]) / 2.0  # scaled into [0,1]
    rng = RngStream(4)
    out = smote_oversample(pts, k=1, n_new=200, rng=rng)
    # every sample lies on the segment between the two points
    diffs = out.reshape(200, 2)
    assert np.allclose(diffs[:, 0], diffs[:, 1], atol=1e-12)
    assert diffs.min() >= 0.0 and diffs.max() <= 1.0
    # midpoint achievable: some lambda near 0.5 exists
    assert np.any(np.abs(diffs[:, 0] - 0.5) < 0.05)


def test_smote_endpoint_lambda_zero():
    base = np.array([[[[0.1, 0.3]]], [[[0.5, 0.9]]], [[[0.2, 0.2]]]])

    class ZeroLam(RngStream):
        def uniform(self, shape=(), low=0.0, high=1.0):
            return np.zeros(shape)

    out = smote_oversample(base, k=1, n_new=5, rng=ZeroLam(0))
    for row in out:
        assert any(np.allclose(row, b) for b in base)


def test_smote_samples_on_parent_segments():
    rng = RngStream(5)
    minority = rng.uniform((20, 1, 4, 4))
    out = smote_oversample(minority, k=3, n_new=100, rng=RngStream(6))
    flat_min = minority.reshape(20, -1)
    for x in out.reshape(100, -1):
        # x = a + lam (b - a) for some pair (a, b): residual of best pair ~ 0
        best = np.inf
        for i in range(20):
            d = x - flat_min[i]
            for j in range(20):
                if i == j:
                    continue
                seg = flat_min[j] - flat_min[i]
                lam = np.dot(d, seg) / np.dot(seg, seg)
                if -1e-9 <= lam <= 1 + 1e-9:
                    best = min(best, np.linalg.norm(d - lam * seg))
        assert best < 1e-9


def test_smote_requires_enough_samples():
    with pytest.raises(ValueError):
        smote_oversample(np.zeros((3, 1, 2, 2)), k=3, n_new=1, rng=RngStream(7))


def test_smote_outputs_stay_in_unit_interval():
    rng = RngStream(8)
    minority = rng.uniform((15, 1, 3, 3))
    out = smote_oversample(minority, k=4, n_new=300, rng=RngStream(9))
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_smote_distances_in_bounded_memory_match_one_pass():
    minority = RngStream(10).uniform((300, 1, 16, 16))
    tracemalloc.start()
    try:
        out = smote_oversample(minority, k=5, n_new=200, rng=RngStream(11))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6

    # the one-pass m*m*D formula, with the same draws
    flat = minority.reshape(300, -1)
    d2 = np.sum((flat[:, None, :] - flat[None, :, :]) ** 2, axis=2)
    np.fill_diagonal(d2, np.inf)
    knn = np.argsort(d2, axis=1)[:, :5]
    rng = RngStream(11)
    base, pick, lam = rng.integers((200,), 0, 300), rng.integers((200,), 0, 5), rng.uniform((200,))
    lam = lam.reshape(200, 1, 1, 1)
    ref = minority[base] + lam * (minority[knn[base, pick]] - minority[base])
    assert np.array_equal(out, ref)


def test_smote_builds_its_samples_in_one_output_buffer():
    minority = RngStream(12).uniform((270, 1, 16, 16))
    smote_oversample(minority[:10], k=3, n_new=5, rng=RngStream(1))  # one-off lazy imports
    tracemalloc.start()
    try:
        out = smote_oversample(minority, k=5, n_new=4000, rng=RngStream(13))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the output and the gathered base rows (2.10x; 3.17x with whole-array temporaries)
    assert peak <= 2.2 * out.nbytes


def test_concat_datasets_counts():
    a = generate_synth_fundus(SynthFundusConfig(seed=17, image_size=8), 5, 2)
    b = generate_synth_fundus(SynthFundusConfig(seed=18, image_size=8), 3, 3)
    both = concat_datasets([a, b])
    assert both.class_counts == (8, 5)


def test_concat_datasets_keeps_truth_only_when_every_part_has_the_same_keys():
    a = generate_synth_fundus(SynthFundusConfig(seed=17, image_size=8), 5, 2)
    b = generate_synth_fundus(SynthFundusConfig(seed=18, image_size=8), 3, 3)
    both = concat_datasets([a, b])
    assert both.truth.keys() == a.truth.keys()
    for key, values in both.truth.items():
        assert np.array_equal(values, np.concatenate([a.truth[key], b.truth[key]]))
    assert concat_datasets([a, b.subset([])]).truth.keys() == a.truth.keys()  # a part without rows adds none
    no_truth = LabeledDataset(images=b.images, labels=b.labels, provenance=b.provenance)
    other_keys = LabeledDataset(images=b.images, labels=b.labels, provenance=b.provenance, truth={"cx": b.truth["cx"]})
    assert concat_datasets([a, no_truth]).truth is None
    assert concat_datasets([a, other_keys]).truth is None


def test_concat_datasets_of_empty_parts_keeps_image_shape():
    empty = generate_synth_fundus(SynthFundusConfig(seed=19, image_size=8), 0, 0)
    out = concat_datasets([empty, empty.subset([])])
    assert len(out) == 0
    assert out.images.shape == (0, 1, 8, 8)


# ---------------------------------------------------------------------------
# dataset validation
# ---------------------------------------------------------------------------


def _pixels(*values):
    """One 1x1 single-channel image per value."""
    return np.asarray(values, dtype=np.float64).reshape(-1, 1, 1, 1)


@pytest.mark.parametrize("bad", [np.nan, -0.1, 1.1])
def test_dataset_rejects_image_values_outside_the_unit_interval(bad):
    with pytest.raises(ValueError, match=r"\[0,1\]"):
        LabeledDataset(images=_pixels(0.5, bad), labels=[0, 1], provenance=[0, 0])


@pytest.mark.parametrize("labels", [[0, 2], [-1, 1], [0.5, 1]])
def test_dataset_rejects_labels_outside_zero_and_one(labels):
    with pytest.raises(ValueError, match="labels"):
        LabeledDataset(images=_pixels(0.2, 0.3), labels=labels, provenance=[0, 0])


@pytest.mark.parametrize(
    "field,kwargs",
    [
        pytest.param("truth", {"truth": {"cup_ratio": np.zeros(5)}}, id="truth-long"),
        pytest.param("truth", {"truth": {"cup_ratio": np.zeros(3), "cx": np.zeros(2)}}, id="truth-short"),
    ],
)
def test_dataset_rejects_per_image_fields_of_another_length(field, kwargs):
    # a mismatch would make subset() hand back the wrong entries without error
    with pytest.raises(ValueError, match=field):
        LabeledDataset(images=_pixels(0.1, 0.2, 0.3), labels=[0, 1, 0], provenance=[0, 0, 0], **kwargs)


def test_dataset_subset_keeps_per_image_fields_aligned():
    ds = LabeledDataset(
        images=_pixels(0.1, 0.2, 0.3), labels=[0, 1, 0], provenance=[0, 0, 0],
        truth={"cx": np.array([0.5, 0.6, 0.7])},
    )
    part = ds.subset([2, 0])
    assert part.truth["cx"].tolist() == [0.7, 0.5]


def test_dataset_subset_takes_integer_row_positions_only():
    ds = LabeledDataset(images=_pixels(*np.linspace(0.0, 0.9, 10)), labels=[0] * 6 + [1] * 4, provenance=[0] * 10)
    # cast to integers, this mask picked rows 0 and 1, both negatives, ten times over
    with pytest.raises(ValueError, match="dtype bool"):
        ds.subset(ds.labels == 1)
    with pytest.raises(ValueError, match="dtype float64"):
        ds.subset([6.0, 7.0])
    assert len(ds.subset([])) == 0
    positives = ds.subset(np.flatnonzero(ds.labels == 1))
    assert positives.class_counts == (0, 4)
    assert positives.images.ravel().tolist() == ds.images.ravel()[6:].tolist()
