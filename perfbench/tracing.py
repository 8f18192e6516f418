"""Spans around the program's public functions, for the benchmark's traced run.

Each wrapper is installed at the name its caller looks up (a module global
bound by ``from .x import y``, a class attribute, or ``numcore.tensor.conv2d``
which ``nn.Conv2d`` resolves through ``T.conv2d``) and only while one traced
unit runs; ``installed`` puts every original object back afterwards. A span
is ``[name, start, end, parent, tag]`` kept in memory; a function's self time
is its span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

from diffupt import classifier, diffusion, latentae, metrics, pipeline
from diffupt.classifier import ClassifierModel
from diffupt.diffusion import DenoiserModel
from diffupt.numcore import tensor


def _conv_counts(counts, args, out) -> str:
    """Work of one conv2d call from its shapes: GEMM flops and im2col bytes."""
    b, cout, hout, wout = out.shape
    _, cin, kh, kw = args[1].shape
    patch = cin * kh * kw * hout * wout
    counts["numcore.conv2d.gflop"] += 2.0 * b * cout * patch / 1e9
    counts["numcore.conv2d.im2col_mb"] += 8.0 * b * patch / 1e6
    return "train" if out.requires_grad else "infer"


def _rows(name: str):
    def count(counts, args, out):
        counts[name] += len(args[1])

    return count


# (owner, attribute, span name, counter); the same function bound under several
# caller names is one span name, so its calls add up.
HOOKS = (
    (tensor, "conv2d", "numcore.conv2d", _conv_counts),
    (classifier, "backward", "numcore.backward", None),
    (diffusion, "backward", "numcore.backward", None),
    (latentae, "backward", "numcore.backward", None),
    (classifier, "adam_step", "numcore.adam_step", None),
    (diffusion, "adam_step", "numcore.adam_step", None),
    (latentae, "adam_step", "numcore.adam_step", None),
    (pipeline, "smote_oversample", "data.smote_oversample", None),
    (pipeline, "train_classifier", "classifier.train_classifier", None),
    (classifier, "train_classifier", "classifier.train_classifier", None),
    (ClassifierModel, "predict_proba", "classifier.predict_proba", _rows("classifier.predict_proba.rows")),
    (ClassifierModel, "extract_features", "classifier.extract_features", None),
    (pipeline, "train_autoencoder", "latentae.train_autoencoder", None),
    (pipeline, "encode", "latentae.encode", None),
    (latentae, "encode", "latentae.encode", None),
    (latentae, "decode", "latentae.decode", None),
    (pipeline, "train_diffusion", "diffusion.train_diffusion", None),
    (diffusion, "sample_raw", "diffusion.sample_raw", None),
    (DenoiserModel, "predict", "diffusion.predict", _rows("diffusion.predict.rows")),
    (metrics, "evaluate_probs", "metrics.evaluate_probs", None),
    (pipeline, "train_generative_stack", "pipeline.train_generative_stack", None),
    (pipeline, "generate_balanced_dataset", "pipeline.generate_balanced_dataset", None),
    (pipeline, "filter_samples", "pipeline.filter_samples", None),
    (pipeline, "diffupt_run", "pipeline.diffupt_run", None),
    (pipeline, "run_comparison", "pipeline.run_comparison", None),
)


COUNTERS = (
    "numcore.conv2d.gflop",
    "numcore.conv2d.im2col_mb",
    "classifier.predict_proba.rows",
    "diffusion.predict.rows",
)
CONV_TAGS = ("train", "infer")


def span_keys() -> list[tuple[str, str | None]]:
    """Every (span name, tag) a traced unit can report."""
    names = dict.fromkeys(name for _, _, name, _ in HOOKS)
    return [(n, None) for n in names] + [("numcore.conv2d", tag) for tag in CONV_TAGS]


def lookup(owner, attr):
    """The object a caller finds at ``owner.attr`` (a class's own attribute, not a bound method)."""
    return owner.__dict__[attr]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def wrap(self, name: str, fn, count=None):
        spans, open_, counts = self.spans, self._open, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, None]
            spans.append(span)
            open_.append(idx)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_.pop()
            if count is not None:
                span[4] = count(counts, args, out)
            return out

        return traced

    def self_times(self) -> dict[tuple[str, str | None], dict[str, float]]:
        """Per span name, and per (name, tag) where a counter tagged the span:
        calls, total seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[tuple[str, str | None], dict[str, float]] = {}
        for (name, start, end, _, tag), inner in zip(self.spans, child):
            keys = ((name, None),) if tag is None else ((name, None), (name, tag))
            for key in keys:
                row = out.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                row["calls"] += 1
                row["total_s"] += end - start
                row["self_s"] += end - start - inner
        return out

    def figures(self) -> dict[str, float]:
        """Flat per-layer figures; a hooked function that was never called reads 0."""
        out = {name: 0.0 for name in COUNTERS}
        out.update(self.counts)
        rows = {key: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for key in span_keys()}
        rows.update(self.self_times())
        for (name, tag), row in rows.items():
            suffix = "" if tag is None else f".{tag}"
            for field, value in row.items():
                out[f"{name}.{field}{suffix}"] = value
        return out


@contextmanager
def installed(tracer: Tracer):
    """Install every hook for the duration of the block, then restore the originals."""
    saved = []
    try:
        for owner, attr, name, count in HOOKS:
            original = lookup(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, count))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
