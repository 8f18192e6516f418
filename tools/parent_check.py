"""Compare the benchmark's and the experiments' figures and weights of two checkouts.

    python3 tools/parent_check.py PARENT_DIR CHANGE_DIR

In each checkout, runs ``perfbench/run.py --workload W --seed S --seconds 0``
(one timed unit) for both workloads at seeds 0-9, then the five experiments
at a tiny configuration (``tiny_experiment``). Each run happens twice: once
as started, where the worker lanes run when the process may use two CPUs,
and once pinned to CPU 0 with ``taskset -c 0``, where every job runs inline;
both with ``OPENBLAS_NUM_THREADS=1``. For each workload, seed and mode it
prints the fields of the two ``report`` lines, and for each experiment and
mode a digest of its figures and one of its classifiers' weights, each
marked ``equal`` (bitwise, by ``repr``) or ``moved``. It exits 1 when a run
exits non-zero or is not ``correct``; a moved field alone does not fail it,
since another machine's BLAS may round differently.

    python3 tools/parent_check.py --experiment NAME

runs one experiment with the program in ``src`` of the current directory and
prints its digests as one JSON line.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

WORKLOADS = ("diffupt", "compare")
SEEDS = range(10)
MODES = {"lanes": [], "inline": ["taskset", "-c", "0"]}
FIGURES = ("val_hm", "test_hm", "test_auc", "failed_frac")
COUNTS = ("attempted", "kept")  # diffupt's per-class generation counts
EXPERIMENTS = ("run_comparison", "augmentation_sweep", "distribution_ablation", "filtering_ablation", "diffupt_run")
METHODS = [
    "normal",
    "weighted_ce",
    "weighted_sampler",
    "weighted_ce+sampler",
    "multi_stage+sampler",
    "smote_augment",
    "gen_augment(4)",
    "diffupt",
]
EXPERIMENT_SEED = 3
# wall times, which differ between any two runs
UNTIMED = frozenset({"sampling_seconds"})


def fields(report: dict) -> dict:
    """The compared fields of one parsed ``report`` line."""
    out = {"weight_hash": report["weight_hash"], **{k: report["figures"][k] for k in FIGURES}}
    out.update({k: report[k] for k in COUNTS if k in report})
    return out


def marked(parent: dict, change: dict) -> list[str]:
    """One ``name value equal`` or ``name parent -> change moved`` entry per
    field of either dict, parent's fields first."""
    out = []
    for name in parent | change:
        pa, pb = repr(parent.get(name)), repr(change.get(name))
        out.append(f"{name} {pa} equal" if pa == pb else f"{name} {pa} -> {pb} moved")
    return out


def compare(parent: dict, change: dict) -> list[str]:
    """``marked`` over the ``fields`` of two parsed ``report`` lines."""
    return marked(fields(parent), fields(change))


def report_of(stdout: str) -> dict | None:
    """The parsed ``report`` line of a run's standard output, if it printed one."""
    lines = [line for line in stdout.splitlines() if line.startswith("report ")]
    return json.loads(lines[0][len("report "):]) if lines else None


def _subprocess(cmd: list[str], checkout: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)


def run(checkout: Path, workload: str, seed: int, mode: str) -> tuple[dict | None, str | None]:
    """The ``report`` of one run in ``checkout``, and why the run failed (None if it did not)."""
    cmd = [*MODES[mode], sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "0"]
    proc = _subprocess(cmd, checkout)
    report = report_of(proc.stdout)
    if proc.returncode != 0:
        return report, f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    if not json.loads(proc.stdout.splitlines()[-1])["correct"]:
        return report, f"not correct: {report['errors']}"
    return report, None


# ---------------------------------------------------------------------------
# the five experiments at the tiny configuration
# ---------------------------------------------------------------------------


def _feed(h, x) -> None:
    """Add ``x`` to the hash ``h``: each dataclass field by name except
    ``UNTIMED`` ones, each array's dtype, shape and bytes, each ``bytes``, each number by the
    ``repr`` of its Python value. A model is left to the weights digest;
    any other object raises ``TypeError`` rather than hash its ``repr``."""
    if isinstance(x, np.generic):
        x = x.item()
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        h.update(f"<{type(x).__name__}".encode())
        for f in dataclasses.fields(x):
            if f.name not in UNTIMED:
                h.update(f" {f.name}=".encode())
                _feed(h, getattr(x, f.name))
        h.update(b">")
    elif hasattr(x, "weight_bytes"):
        h.update(b"<model>")
    elif isinstance(x, np.ndarray):
        h.update(f"<{x.dtype.str}{x.shape}>".encode())
        h.update(np.ascontiguousarray(x).tobytes())
    elif isinstance(x, bytes):
        h.update(f"<{len(x)}>".encode())
        h.update(x)
    elif isinstance(x, dict):
        h.update(b"{")
        for key in sorted(x):
            h.update(f"{key!r}:".encode())
            _feed(h, x[key])
        h.update(b"}")
    elif isinstance(x, (list, tuple)):
        h.update(f"[{len(x)}".encode())
        for item in x:
            _feed(h, item)
        h.update(b"]")
    elif x is None or isinstance(x, (bool, int, float, str)):
        h.update(f"{x!r};".encode())
    else:
        raise TypeError(f"no digest for a {type(x).__name__}")


def digest(x) -> str:
    """A 16-hex-digit digest of ``x`` (see ``_feed``)."""
    h = hashlib.sha256()
    _feed(h, x)
    return h.hexdigest()[:16]


def tiny_experiment(name: str) -> tuple[object, list[bytes]]:
    """Experiment ``name``'s result and every classifier's ``weight_bytes``
    (in build order) at a tiny configuration: 84 surrogate images at seed 3,
    a few iterations per stage, and no generation filter, so no class falls
    short. It uses the ``diffupt`` already imported or importable."""
    from diffupt import pipeline as P
    from diffupt.classifier import TrainRegime
    from diffupt.data import SynthFundusConfig, generate_synth_fundus, stratified_split
    from diffupt.diffusion import DiffusionTrainConfig, SampleMethod
    from diffupt.latentae import AeTrainConfig
    from diffupt.numcore import RngStream

    class Recording(P.ExperimentContext):
        """Keeps every classifier it builds."""

        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            self.models = []

        def new_classifier(self, splits, rng):
            model = super().new_classifier(splits, rng)
            self.models.append(model)
            return model

    plan = P.GenerationPlan(
        target_counts=(3, 3), method=SampleMethod("ddim", steps=2), filter="none", max_attempts_factor=2.0, gen_batch=6
    )
    ctx = Recording(
        regime=TrainRegime(iterations=3, batch=8, eval_every=2),
        stack_cfg=P.StackConfig(ae=AeTrainConfig(iterations=2), diffusion=DiffusionTrainConfig(iterations=2)),
        diffupt_cfg=P.DiffuPTConfig(
            pretrain=TrainRegime(iterations=2, batch=8, lr=1e-3),
            finetune=TrainRegime(iterations=2, batch=8, lr=1e-4),
            generation=plan,
        ),
    )
    ds = generate_synth_fundus(SynthFundusConfig(seed=EXPERIMENT_SEED), 60, 24)
    splits = P.Splits(*stratified_split(ds, (0.7, 0.15, 0.15), test_minority_fraction=0.2, seed=EXPERIMENT_SEED))
    rng = RngStream(EXPERIMENT_SEED)
    experiments = {
        "run_comparison": lambda: P.run_comparison(splits, METHODS, rng, ctx=ctx),
        "augmentation_sweep": lambda: P.augmentation_sweep(splits, [0, 4], rng, ctx=ctx),
        "distribution_ablation": lambda: P.distribution_ablation(splits, [(50, 50), (30, 70)], 6, rng, ctx=ctx),
        "filtering_ablation": lambda: P.filtering_ablation(splits, rng, ctx=ctx),
        "diffupt_run": lambda: P.diffupt_run(splits, ctx.diffupt_cfg, rng, ctx=ctx),
    }
    result = experiments[name]()
    return result, [m.weight_bytes() for m in ctx.models]


def experiment_digests(name: str) -> dict:
    """The compared fields of one experiment: its figures' and its weights' digests."""
    result, weights = tiny_experiment(name)
    return {"figures": digest(result), "weights": digest(weights)}


def run_experiment(checkout: Path, name: str, mode: str) -> tuple[dict | None, str | None]:
    """``experiment_digests`` of ``name`` run in ``checkout``, and why the run failed (None if it did not)."""
    proc = _subprocess([*MODES[mode], sys.executable, str(Path(__file__).resolve()), "--experiment", name], checkout)
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    out = json.loads(proc.stdout.splitlines()[-1])
    program = Path(out.pop("program")).resolve()
    if not program.is_relative_to(Path(checkout).resolve()):
        return None, f"imported the program from {program}, outside the checkout"
    return out, None


def _experiment_main(name: str) -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    import diffupt

    print(json.dumps({**experiment_digests(name), "program": diffupt.__file__}))
    return 0


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--experiment" and argv[1] in EXPERIMENTS:
        return _experiment_main(argv[1])
    if len(argv) != 2 or argv[0].startswith("-"):
        sys.exit(__doc__)
    parent_dir, change_dir = map(Path, argv)
    checks = [(f"{w} seed {s}", run, (w, s), compare) for w in WORKLOADS for s in SEEDS]
    checks += [(name, run_experiment, (name,), marked) for name in EXPERIMENTS]
    failed = False
    for label, runner, args, compared in checks:
        for mode in MODES:
            (parent, err_p), (change, err_c) = (runner(d, *args, mode) for d in (parent_dir, change_dir))
            head = f"{label} {mode}:"
            for side, err in (("parent", err_p), ("change", err_c)):
                if err:
                    failed = True
                    print(head, side, err, flush=True)
            if parent is not None and change is not None:
                print(head, ", ".join(compared(parent, change)), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
