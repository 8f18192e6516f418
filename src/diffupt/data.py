"""Synthetic fundus-surrogate data: generation, splits, sampling, SMOTE.

The surrogate image is a procedurally drawn grayscale optic disc with an
inner cup; the minority class draws its cup-to-disc ratio from a larger
mean, so "disease" is a real geometric signal that an independent radial
intensity profile can measure back out of the pixels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numcore import RngStream

REAL, SYNTHETIC = 0, 1


def is_count(n, minimum: int = 0) -> bool:
    """Whether ``n`` is a whole number >= ``minimum``: a Python or numpy integer, not a bool."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= minimum


def check_counts(config, minimum: int, *names: str) -> None:
    """Raise ``ValueError`` naming the first of ``config``'s fields ``names``
    that is not a whole number >= ``minimum``."""
    for name in names:
        n = getattr(config, name)
        if not is_count(n, minimum):
            raise ValueError(f"{name} must be a whole number >= {minimum}, got {n!r}")


class SplitDeficitError(ValueError):
    """Not enough minority samples to hit a requested split composition."""


class MissingClassError(ValueError):
    """An operation needs both classes present."""


@dataclass
class LabeledDataset:
    """Images (N,C,H,W) in [0,1] with binary labels and provenance flags, and
    for generated surrogate images the ground-truth generative parameters
    (``truth``, one array of N values per parameter name)."""

    images: np.ndarray
    labels: np.ndarray
    provenance: np.ndarray
    truth: dict[str, np.ndarray] | None = None

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        labels = np.asarray(self.labels)
        if not np.all((labels == 0) | (labels == 1)):
            raise ValueError("labels must be 0 or 1")
        self.labels = np.asarray(labels, dtype=np.int8)
        self.provenance = np.asarray(self.provenance, dtype=np.int8)
        if self.images.ndim != 4:
            raise ValueError(f"images must be (N,C,H,W), got {self.images.shape}")
        n = self.images.shape[0]
        if len(self.labels) != n or len(self.provenance) != n:
            raise ValueError("labels/provenance length must match images")
        for key, values in (self.truth or {}).items():
            if len(values) != n:
                raise ValueError(f"truth[{key!r}] has {len(values)} entries for {n} images")
        # written so that NaN, which fails every comparison, fails it too
        if n and not (self.images.min() >= 0.0 and self.images.max() <= 1.0):
            raise ValueError("image values must lie in [0,1]")

    def __len__(self) -> int:
        return self.images.shape[0]

    @property
    def class_counts(self) -> tuple[int, int]:
        n_pos = int(np.sum(self.labels == 1))
        return len(self) - n_pos, n_pos

    @property
    def minority_fraction(self) -> float:
        n_neg, n_pos = self.class_counts
        return n_pos / max(1, n_neg + n_pos)

    def subset(self, idx) -> "LabeledDataset":
        """The rows at integer positions ``idx``, in that order."""
        idx = np.asarray(idx)
        # a boolean mask cast to integers would pick rows 0 and 1 over and over
        if idx.size and idx.dtype.kind not in "iu":
            raise ValueError(f"subset takes integer row positions, got an index of dtype {idx.dtype}")
        idx = idx.astype(np.int64, copy=False)
        return LabeledDataset(
            images=self.images[idx],
            labels=self.labels[idx],
            provenance=self.provenance[idx],
            truth=None if self.truth is None else {k: v[idx] for k, v in self.truth.items()},
        )


def concat_datasets(parts: list[LabeledDataset]) -> LabeledDataset:
    """Rows of every part in order; parts that are all empty keep their image
    shape. ``truth`` is joined in row order when every part with rows carries
    it with the same keys, and is ``None`` otherwise."""
    parts = [p for p in parts if len(p)] or parts[:1]
    key_sets = {None if p.truth is None else frozenset(p.truth) for p in parts}
    keep_truth = len(key_sets) == 1 and None not in key_sets
    return LabeledDataset(
        images=np.concatenate([p.images for p in parts]),
        labels=np.concatenate([p.labels for p in parts]),
        provenance=np.concatenate([p.provenance for p in parts]),
        truth={k: np.concatenate([p.truth[k] for p in parts]) for k in parts[0].truth} if keep_truth else None,
    )


def class_dataset(per_class: list[np.ndarray], provenance: int) -> LabeledDataset:
    """One dataset from per-class image arrays: class 0's images first, each
    labelled by its index in ``per_class``, all with the same provenance."""
    return LabeledDataset(
        images=np.concatenate(per_class),
        labels=np.concatenate([np.full(len(im), c, dtype=np.int8) for c, im in enumerate(per_class)]),
        provenance=np.full(sum(len(im) for im in per_class), provenance, dtype=np.int8),
    )


def empty_dataset(c: int, h: int, w: int) -> LabeledDataset:
    return LabeledDataset(
        images=np.zeros((0, c, h, w)),
        labels=np.zeros(0, dtype=np.int8),
        provenance=np.zeros(0, dtype=np.int8),
    )


@dataclass
class SynthFundusConfig:
    image_size: int = 16
    disc_radius_range: tuple[float, float] = (0.28, 0.40)
    cup_ratio_majority: tuple[float, float] = (0.40, 0.055)  # mean, sd
    cup_ratio_minority: tuple[float, float] = (0.60, 0.055)
    noise_sd: float = 0.02
    bg_level: float = 0.20
    disc_level: float = 0.60
    cup_level: float = 0.90
    edge_width: float = 1.0
    center_jitter: float = 0.04  # fraction of width
    seed: int = 0

    def __post_init__(self):
        if self.image_size < 8:
            raise ValueError("image_size < 8: disc and cup become indistinguishable")
        if not (0 < self.cup_ratio_majority[0] < 1 and 0 < self.cup_ratio_minority[0] < 1):
            raise ValueError("cup ratios must lie in (0,1)")
        if self.cup_ratio_minority[0] <= self.cup_ratio_majority[0]:
            raise ValueError("minority cup ratio mean must exceed majority mean")
        lo, hi = self.disc_radius_range
        if not (0 < lo < hi < 0.5):
            raise ValueError("disc radius range must satisfy 0 < lo < hi < 0.5")


def _soft_edge(edge_r: np.ndarray, d: np.ndarray, width: float, out: np.ndarray) -> np.ndarray:
    """``clip(0.5 + (edge_r - d) / width, 0, 1)`` per image, written into ``out``."""
    np.subtract(edge_r[:, None, None], d, out=out)
    out /= width
    out += 0.5
    return np.clip(out, 0.0, 1.0, out=out)


def _render_discs(size, cx, cy, r_disc, r_cup, cfg: SynthFundusConfig, out: np.ndarray) -> np.ndarray:
    """(n, size, size) disc-and-cup images, written into ``out``: the background
    level, plus the disc's and then the cup's level step, each through a soft
    edge of the pixel-centre distance to the disc centre. Besides ``out`` it
    holds one image-sized buffer, the distance; the cup's soft edge overwrites
    it once the disc's is drawn. Each step is the IEEE operation of
    ``bg + (disc - bg) * soft(r_disc) + (cup - disc) * soft(r_cup)`` on the same
    operands, so the pixels are those of that expression."""
    ys, xs = np.mgrid[0:size, 0:size] + 0.5
    d = np.subtract(xs, cx[:, None, None])
    np.square(d, out=d)
    np.subtract(ys, cy[:, None, None], out=out)
    np.square(out, out=out)
    d += out
    np.sqrt(d, out=d)

    _soft_edge(r_disc, d, cfg.edge_width, out=out)
    out *= cfg.disc_level - cfg.bg_level
    out += cfg.bg_level
    cup = _soft_edge(r_cup, d, cfg.edge_width, out=d)
    cup *= cfg.cup_level - cfg.disc_level
    out += cup
    return out


# Images are rendered, noised and clipped this many rows at a time, straight
# into the output, so the generator's buffers besides its output do not grow
# with the image count (256 16x16 rows are 0.5 MB a buffer).
_GEN_BLOCK_ROWS = 256


def generate_synth_fundus(cfg: SynthFundusConfig, n_negative: int, n_positive: int) -> LabeledDataset:
    """Deterministically draw a labelled disc/cup image set.

    Ground-truth generative parameters (cup ratio, disc radius, centre) are
    retained on the dataset for oracle checks.
    """
    for name, count in (("n_negative", n_negative), ("n_positive", n_positive)):
        if not is_count(count):
            raise ValueError(f"{name} must be a whole number >= 0, got {count!r}")
    size = cfg.image_size
    n = n_negative + n_positive
    if n == 0:
        return empty_dataset(1, size, size)

    rng = RngStream(cfg.seed).split("synth-fundus")
    labels = np.concatenate([np.zeros(n_negative, dtype=np.int8), np.ones(n_positive, dtype=np.int8)])

    lo, hi = cfg.disc_radius_range
    r_disc = rng.uniform((n,), lo * size, hi * size)
    ratios = np.empty(n)
    maj_mean, maj_sd = cfg.cup_ratio_majority
    min_mean, min_sd = cfg.cup_ratio_minority
    ratios[:n_negative] = rng.normal((n_negative,), maj_mean, maj_sd)
    ratios[n_negative:] = rng.normal((n_positive,), min_mean, min_sd)
    ratios = np.clip(ratios, 0.15, 0.90)
    jitter = cfg.center_jitter * size
    dx = rng.uniform((n,), -jitter, jitter)
    dy = rng.uniform((n,), -jitter, jitter)
    cx = size / 2.0 + dx
    cy = size / 2.0 + dy

    images = np.empty((n, 1, size, size))
    noise = rng.normal_blocks(n, (size, size), _GEN_BLOCK_ROWS, 0.0, cfg.noise_sd)
    for start, block_noise in zip(range(0, n, _GEN_BLOCK_ROWS), noise):
        rows = slice(start, start + _GEN_BLOCK_ROWS)
        img = _render_discs(size, cx[rows], cy[rows], r_disc[rows], ratios[rows] * r_disc[rows], cfg, out=images[rows, 0])
        img += block_noise
        np.clip(img, 0.0, 1.0, out=img)

    return LabeledDataset(
        images=images,
        labels=labels,
        provenance=np.full(n, REAL, dtype=np.int8),
        truth={"cup_ratio": ratios, "disc_radius": r_disc, "cx": cx, "cy": cy},
    )


def measure_cup_disc_ratio(images: np.ndarray, cfg: SynthFundusConfig) -> np.ndarray:
    """Oracle measurement of cup/disc radius ratio from pixels alone.

    Uses a radial intensity profile around the intensity centroid and the
    imaging protocol's known levels; returns NaN where no disc is found.
    """
    imgs = np.asarray(images, dtype=np.float64)
    if imgs.ndim == 4:
        imgs = imgs[:, 0]
    size = imgs.shape[-1]
    ys, xs = np.mgrid[0:size, 0:size] + 0.5
    th_disc = 0.5 * (cfg.bg_level + cfg.disc_level)
    th_cup = 0.5 * (cfg.disc_level + cfg.cup_level)
    bin_w = 0.5
    edges = np.arange(0.0, size / 2.0 + bin_w, bin_w)
    centers = edges[:-1] + bin_w / 2.0

    out = np.empty(len(imgs))
    for i, img in enumerate(imgs):
        mass = np.clip(img - cfg.bg_level, 0.0, None)
        total = mass.sum()
        if total <= 1e-9:
            out[i] = np.nan
            continue
        cx = (xs * mass).sum() / total
        cy = (ys * mass).sum() / total
        d = np.sqrt((xs - cx) ** 2 + (ys - cy) ** 2)
        which = np.digitize(d.ravel(), edges) - 1
        flat = img.ravel()
        prof = np.full(len(centers), np.nan)
        for k in range(len(centers)):
            sel = which == k
            if sel.any():
                prof[k] = flat[sel].mean()
        valid = ~np.isnan(prof)
        prof = np.interp(centers, centers[valid], prof[valid])
        r_disc = _outermost_crossing(prof, centers, th_disc)
        if not np.isfinite(r_disc) or r_disc <= 0:
            out[i] = np.nan
            continue
        r_cup = _outermost_crossing(prof, centers, th_cup)
        out[i] = 0.0 if not np.isfinite(r_cup) else min(r_cup / r_disc, 1.0)
    return out


def _outermost_crossing(prof: np.ndarray, centers: np.ndarray, thr: float) -> float:
    above = np.nonzero(prof >= thr)[0]
    if len(above) == 0:
        return np.nan
    i = above[-1]
    if i == len(prof) - 1:
        return centers[-1]
    # linear interpolation between the last bin above and the next below
    p0, p1 = prof[i], prof[i + 1]
    frac = (p0 - thr) / (p0 - p1) if p0 != p1 else 0.0
    return float(centers[i] + frac * (centers[i + 1] - centers[i]))


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------


def stratified_split(
    ds: LabeledDataset,
    fractions: tuple[float, float, float],
    test_minority_fraction: float,
    seed: int,
    val_minority_fraction: float | None = None,
) -> tuple[LabeledDataset, LabeledDataset, LabeledDataset]:
    """Split into train/val/test with a pinned test-set minority share.

    The validation minority share can optionally be pinned too; otherwise
    the remainder after carving out the test set is split proportionally.
    """
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {fractions}")
    shares = [("fractions", f) for f in fractions] + [("test_minority_fraction", test_minority_fraction)]
    if val_minority_fraction is not None:
        shares.append(("val_minority_fraction", val_minority_fraction))
    for name, f in shares:
        if not 0.0 <= f <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {f}")
    n = len(ds)
    rng = RngStream(seed).split("stratified-split")
    pos_idx = np.nonzero(ds.labels == 1)[0]
    neg_idx = np.nonzero(ds.labels == 0)[0]
    pos_idx = pos_idx[rng.permutation(len(pos_idx))]
    neg_idx = neg_idx[rng.permutation(len(neg_idx))]

    n_test = round(n * fractions[2])
    n_val = round(n * fractions[1])

    def take(n_split, minority_frac, pos_pool, neg_pool, name):
        if n_split == 0:
            return np.zeros(0, dtype=np.int64), pos_pool, neg_pool
        if minority_frac is None:
            remaining = len(pos_pool) + len(neg_pool)
            k_pos = round(n_split * len(pos_pool) / remaining)
        else:
            k_pos = round(n_split * minority_frac)
        k_neg = n_split - k_pos
        if k_pos > len(pos_pool):
            raise SplitDeficitError(
                f"{name} split needs {k_pos} minority samples but only "
                f"{len(pos_pool)} remain (deficit {k_pos - len(pos_pool)})"
            )
        if k_neg > len(neg_pool):
            raise SplitDeficitError(
                f"{name} split needs {k_neg} majority samples but only "
                f"{len(neg_pool)} remain (deficit {k_neg - len(neg_pool)})"
            )
        idx = np.concatenate([pos_pool[:k_pos], neg_pool[:k_neg]])
        return idx, pos_pool[k_pos:], neg_pool[k_neg:]

    test_idx, pos_idx, neg_idx = take(n_test, test_minority_fraction, pos_idx, neg_idx, "test")
    val_idx, pos_idx, neg_idx = take(n_val, val_minority_fraction, pos_idx, neg_idx, "val")
    train_idx = np.concatenate([pos_idx, neg_idx])

    # shuffle within each split so class blocks don't survive
    train_idx = train_idx[rng.permutation(len(train_idx))]
    val_idx = val_idx[rng.permutation(len(val_idx))]
    test_idx = test_idx[rng.permutation(len(test_idx))]
    return ds.subset(train_idx), ds.subset(val_idx), ds.subset(test_idx)


def class_weights(ds: LabeledDataset) -> tuple[float, float]:
    """Inverse-frequency weights w_c = N / (2 N_c), mean 1 under the data."""
    n_neg, n_pos = ds.class_counts
    if n_neg == 0 or n_pos == 0:
        raise MissingClassError(f"both classes required, got counts ({n_neg}, {n_pos})")
    n = n_neg + n_pos
    return n / (2.0 * n_neg), n / (2.0 * n_pos)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


class IndexSampler:
    """Stream of dataset indices drawn uniformly, or class-balanced: each row
    weighted by its class's ``class_weights``, so each class is drawn half the
    time in expectation."""

    def __init__(self, ds: LabeledDataset, rng: RngStream, balanced: bool):
        if len(ds) == 0:
            raise ValueError("cannot sample from an empty dataset")
        self._n = len(ds)
        self._rng = rng
        self._cdf = None
        if balanced:
            weights = class_weights(ds)
            per_index = np.where(ds.labels == 1, weights[1], weights[0]).astype(np.float64)
            self._cdf = np.cumsum(per_index / per_index.sum())

    def draw(self, n: int) -> np.ndarray:
        if self._cdf is None:
            return self._rng.integers((n,), 0, self._n)
        u = self._rng.uniform((n,))
        return np.searchsorted(self._cdf, u).clip(0, self._n - 1).astype(np.int64)


# ---------------------------------------------------------------------------
# SMOTE
# ---------------------------------------------------------------------------


_SMOTE_BLOCK_VALUES = 1 << 19  # 4 MB of float64 per distance block


def _squared_distances(flat: np.ndarray) -> np.ndarray:
    """(m, m) squared distances between the rows of ``flat``, inf on the diagonal.

    Blocks of rows bound the (rows, m, D) difference tensor to one reused
    buffer, squared in place; each entry is the same sum of squared
    differences as one m*m*D pass would compute."""
    m, dim = flat.shape
    step = max(1, _SMOTE_BLOCK_VALUES // (m * dim))
    diff = np.empty((min(step, m), m, dim))
    d2 = np.empty((m, m))
    for i in range(0, m, step):
        block = diff[: min(step, m - i)]
        np.subtract(flat[i : i + step, None, :], flat[None, :, :], out=block)
        np.square(block, out=block)
        np.sum(block, axis=2, out=d2[i : i + step])
    np.fill_diagonal(d2, np.inf)
    return d2


def smote_oversample(minority: np.ndarray, k: int, n_new: int, rng: RngStream) -> np.ndarray:
    """New samples x_i + U(0,1) * (x_nn - x_i) with x_nn among k pixel-space neighbours."""
    x = np.asarray(minority, dtype=np.float64)
    m = x.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    if m <= k:
        raise ValueError(f"need more minority samples ({m}) than neighbours k={k}")
    if n_new == 0:
        return np.zeros((0,) + x.shape[1:])
    knn = np.argsort(_squared_distances(x.reshape(m, -1)), axis=1)[:, :k]

    base = rng.integers((n_new,), 0, m)
    pick = rng.integers((n_new,), 0, k)
    lam = rng.uniform((n_new,))
    neighbours = knn[base, pick]
    lam = lam.reshape((n_new,) + (1,) * (x.ndim - 1))
    # x_base + lam * (x_nn - x_base), one IEEE step at a time in one output buffer
    out = x[neighbours]
    base_rows = x[base]
    out -= base_rows
    out *= lam
    out += base_rows
    return out
