"""Fixed-seed benchmark of the DiffuPT workbench.

Run from the repository root:

    python3 perfbench/run.py --workload diffupt --seed 0 --seconds 58 --trace 0

The seed makes the inputs; set-up runs several times and its median is
``setup_s``; then the workload's timed unit repeats until the
next repetition would overrun ``--seconds`` (at least once). Every
repetition's outputs are checked and must repeat bitwise. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, which holds the end-to-end metrics named in ``BENCHMARK.json``
(``--trace 0``) or its per-layer metrics (``--trace 1``, one extra traced
repetition whose wall time minus the untraced median is printed as the
tracing overhead).
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported. One thread (never more than nproc) keeps
# run times steadier and, at these matrix sizes, was not slower than two.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 15


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def load_program():
    """Import the program from ``src``; a checkout without it cannot be benchmarked."""
    if not (ROOT / "src" / "diffupt" / "__init__.py").is_file():
        sys.exit(f"no program source at {ROOT / 'src' / 'diffupt'}")
    sys.path.insert(0, str(ROOT / "src"))


def environment() -> dict:
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            env["blas_threads_effective"] = fn()
    return env


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(fn, *args):
    gc.collect()
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    import tracing
    import workloads as W

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in W.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {sorted(W.WORKLOADS)}")
    wl = W.WORKLOADS[args.workload]
    sz = W.FULL
    print("env", json.dumps(environment()), flush=True)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        state, dt = timed(wl.setup, args.seed, sz)
        setup_times.append(dt)

    def unit():
        try:
            return timed(wl.run, state)
        except Exception:
            traceback.print_exc()
            return None, None

    # Repeat the unit while another one fits before the deadline; a traced run
    # keeps room for its traced repetition, so it lasts about as long as an
    # untraced one. A repetition that raises ends the loop: the same inputs
    # would raise again.
    walls, outcomes, failed = [], [], 0
    deadline = time.perf_counter() + args.seconds
    while True:
        out, dt = unit()
        if out is None:
            failed += 1
            break
        walls.append(dt)
        outcomes.append(out)
        if time.perf_counter() + statistics.median(walls) * (1 + args.trace) > deadline:
            break

    tracer, traced_wall = None, None
    if args.trace:
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            out, traced_wall = unit()
        if out is None:
            failed += 1
        else:
            outcomes.append(out)
    if not walls:
        sys.exit("every untraced repetition raised; no result")

    first = outcomes[0]
    errors = [e for o in outcomes for e in o.errors]
    # repr compares floats bitwise and treats NaN as equal to itself
    if any(o.weight_hash != first.weight_hash or repr(o.metrics) != repr(first.metrics) for o in outcomes):
        errors.append("repetitions of one seed disagree: outputs are not deterministic")
    wall = statistics.median(walls)
    units = len(outcomes) + failed
    # a repetition that raised delivered none of what it was asked for
    unmet = sum(o.unmet for o in outcomes) + failed * first.requested

    figures = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb(),
        "failed_frac": unmet / (units * first.requested),
        **first.metrics,
        "train_steps_per_s": wl.iterations(sz) / wall,
    }

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_runs_s": setup_times,
        "unit_runs_s": walls,
        "weight_hash": first.weight_hash,
        "figures": figures,
        **first.info,
        "errors": errors,
    }
    if tracer is not None:
        report["per_layer"] = source = tracer.figures()
        if traced_wall is not None:
            report["trace_overhead_s"] = traced_wall - wall
        wanted = spec["per_layer"]
    else:
        wanted, source = spec["end_to_end"], figures
    print("report", json.dumps(report), flush=True)
    result = {
        "correct": not errors,
        "attempted": units,
        "failed": failed,
        "metrics": {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
