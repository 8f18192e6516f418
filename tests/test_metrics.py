"""Metric tests: confusion/harmonic-mean/AUC oracles and SSIM."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diffupt import metrics as M
from diffupt.numcore import RngStream
from reference_tables import INCONSISTENT_ROWS, REFERENCE_ROWS, printed_tolerance


# ---------------------------------------------------------------------------
# confusion and ratios
# ---------------------------------------------------------------------------


def test_confusion_perfect_predictor():
    probs = np.array([0.9, 0.8, 0.1, 0.2])
    labels = np.array([1, 1, 0, 0])
    c = M.confusion(probs, labels, 0.5)
    assert (c.tp, c.fp, c.tn, c.fn) == (2, 0, 2, 0)


def test_confusion_all_positive_predictor():
    labels = np.array([1] * 3 + [0] * 5)
    c = M.confusion(np.ones(8), labels, 0.5)
    assert (c.tp, c.fp, c.tn, c.fn) == (3, 5, 0, 0)


def test_confusion_reported_test_set_counts():
    # 93.09% sensitivity over 521 positives implies tp=485, fn=36:
    # round(0.9309 * 521) = 485.
    tp = round(0.9309 * 521)
    assert tp == 485
    labels = np.array([1] * 521)
    probs = np.array([1.0] * tp + [0.0] * (521 - tp))
    c = M.confusion(probs, labels, 0.5)
    assert c.tp == 485 and c.fn == 36
    assert M.sensitivity(c) == pytest.approx(93.09, abs=0.01)


def test_ratio_undefined_markers():
    c = M.ConfusionCounts(tp=0, fp=2, tn=3, fn=0)
    assert np.isnan(M.sensitivity(c))
    assert M.specificity(c) == pytest.approx(60.0)
    assert np.isnan(M.harmonic_mean(float("nan"), 50.0))


@pytest.mark.parametrize("table,sens,spec,printed", REFERENCE_ROWS)
def test_reported_rows_recompute(table, sens, spec, printed):
    hm = M.harmonic_mean(sens, spec)
    assert abs(hm - float(printed)) <= printed_tolerance(printed)


@pytest.mark.parametrize("table,sens,spec,printed", INCONSISTENT_ROWS)
def test_known_inconsistent_row_recomputes_correctly(table, sens, spec, printed):
    # The printed value cannot be reproduced from its own printed inputs;
    # verify the correct recomputation and the size of the discrepancy.
    hm = M.harmonic_mean(sens, spec)
    assert hm == pytest.approx(90.1902, abs=1e-3)
    assert abs(hm - float(printed)) > 0.01


def test_harmonic_mean_examples():
    assert M.harmonic_mean(83.69, 95.23) == pytest.approx(89.09, abs=0.01)
    assert M.harmonic_mean(93.09, 92.1) == pytest.approx(92.59, abs=0.01)
    assert M.harmonic_mean(70.0, 70.0) == pytest.approx(70.0)


@given(
    a=st.floats(min_value=0.1, max_value=100.0),
    b=st.floats(min_value=0.1, max_value=100.0),
)
def test_harmonic_mean_symmetry_and_bounds(a, b):
    hm = M.harmonic_mean(a, b)
    assert hm == pytest.approx(M.harmonic_mean(b, a))
    assert min(a, b) - 1e-9 <= hm <= (a + b) / 2 + 1e-9


# ---------------------------------------------------------------------------
# AUC
# ---------------------------------------------------------------------------


def auc_pairwise(probs, labels):
    """O(n^2) oracle: P(score_pos > score_neg), ties counted half."""
    probs = np.asarray(probs)
    labels = np.asarray(labels)
    pos = probs[labels == 1]
    neg = probs[labels == 0]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def test_auc_perfect_separation():
    probs = np.array([0.9, 0.8, 0.2, 0.1])
    labels = np.array([1, 1, 0, 0])
    assert M.auc(probs, labels) == pytest.approx(1.0)


def test_auc_all_ties_is_half():
    probs = np.full(10, 0.5)
    labels = np.array([1] * 4 + [0] * 6)
    assert M.auc(probs, labels) == pytest.approx(0.5)


def test_auc_single_class_undefined():
    assert np.isnan(M.auc(np.array([0.1, 0.9]), np.array([1, 1])))


@pytest.mark.parametrize("seed", range(5))
def test_auc_matches_pairwise_oracle(seed):
    rng = RngStream(seed)
    n = 200
    labels = (rng.uniform((n,)) < 0.3).astype(int)
    if labels.sum() in (0, n):
        labels[0] = 1 - labels[0]
    # quantized scores force plenty of ties
    probs = np.round(rng.uniform((n,)), 1)
    assert M.auc(probs, labels) == pytest.approx(auc_pairwise(probs, labels), abs=1e-12)


# ---------------------------------------------------------------------------
# SSIM
# ---------------------------------------------------------------------------


def test_ssim_self_is_one():
    rng = RngStream(6)
    x = rng.uniform((16, 16))
    assert M.ssim(x, x) == pytest.approx(1.0)


def test_ssim_inverted_is_worse():
    rng = RngStream(7)
    x = rng.uniform((16, 16))
    assert M.ssim(x, 1.0 - x) < M.ssim(x, x)


def test_ssim_constant_shift_cancels():
    # Checkerboard perturbation keeps every 8x8 window mean equal, so the
    # luminance term cancels and a constant shift of both images is inert.
    rng = RngStream(8)
    x = rng.uniform((16, 16), 0.2, 0.6)
    checker = 0.05 * ((-1.0) ** (np.add.outer(np.arange(16), np.arange(16))))
    y = x + checker
    base = M.ssim(x, y)
    shifted = M.ssim(x + 0.2, y + 0.2)
    assert shifted == pytest.approx(base, abs=1e-6)


def test_ssim_shape_mismatch_errors():
    with pytest.raises(ValueError):
        M.ssim(np.zeros((8, 8)), np.zeros((8, 9)))


def ssim_per_window_reference(a, b, window=8, dynamic_range=1.0):
    """SSIM by its definition: every dense window's statistics, one image at a time."""
    a = a.reshape(a.shape[-2], a.shape[-1])
    b = b.reshape(b.shape[-2], b.shape[-1])
    h, w = a.shape
    win = min(window, h, w)
    c1, c2 = (0.01 * dynamic_range) ** 2, (0.03 * dynamic_range) ** 2
    vals = []
    for i in range(h - win + 1):
        for j in range(w - win + 1):
            wa, wb = a[i : i + win, j : j + win], b[i : i + win, j : j + win]
            mu_a, mu_b = wa.mean(), wb.mean()
            cov = (wa * wb).mean() - mu_a * mu_b
            num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
            vals.append(num / ((mu_a**2 + mu_b**2 + c1) * (wa.var() + wb.var() + c2)))
    return np.mean(vals)


def _batches(seed, shape):
    rng = RngStream(seed)
    a = rng.uniform(shape)
    return a, np.clip(a + rng.normal(shape, sd=0.2), 0.0, 1.0)


@pytest.mark.parametrize(
    "a,b,window",
    [
        pytest.param(*_batches(9, (20, 1, 16, 16)), 8, id="random"),
        pytest.param(*_batches(10, (7, 11, 13)), 5, id="random-11x13"),
        pytest.param(np.full((3, 1, 16, 16), 0.7), np.full((3, 1, 16, 16), 0.3), 8, id="constant"),
        pytest.param(*_batches(11, (5, 1, 8, 8)), 8, id="window-is-image"),
        pytest.param(*_batches(12, (4, 6, 6)), 10, id="window-over-image"),
    ],
)
def test_mean_ssim_equals_the_per_window_definition(a, b, window):
    ref = np.mean([ssim_per_window_reference(x, y, window) for x, y in zip(a, b)])
    assert M.mean_ssim(a, b, window=window) == pytest.approx(ref, rel=0, abs=1e-12)
    assert M.ssim(a[0], b[0], window=window) == pytest.approx(ssim_per_window_reference(a[0], b[0], window), rel=0, abs=1e-12)


def test_evaluate_probs_bundles_the_confusion_it_derives_from():
    probs = np.array([0.9, 0.2, 0.8, 0.3, 0.6])
    labels = np.array([1, 0, 1, 0, 0])
    rep = M.evaluate_probs(probs, labels)
    assert rep.confusion == M.ConfusionCounts(tp=2, fp=1, tn=2, fn=0)
    assert rep.sensitivity == pytest.approx(100.0)
    assert rep.specificity == pytest.approx(200.0 / 3.0)
    assert rep.harmonic_mean == pytest.approx(80.0)
