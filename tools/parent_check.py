"""Compare the benchmark's quality figures and weight hashes of two checkouts.

    python3 tools/parent_check.py PARENT_DIR CHANGE_DIR

In each checkout, runs ``perfbench/run.py --workload W --seed S --seconds 0``
(one timed unit) for both workloads at seeds 0-9, once as started, where the
worker lanes run when the process may use two CPUs, and once pinned to CPU 0
with ``taskset -c 0``, where every job runs inline. For each workload, seed and
mode it prints the fields of the two ``report`` lines, each marked ``equal``
(bitwise, by ``repr``) or ``moved``. It exits 1 when a run exits non-zero or
is not ``correct``; a moved field alone does not fail it, since another
machine's BLAS may round differently.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("diffupt", "compare")
SEEDS = range(10)
MODES = {"lanes": [], "inline": ["taskset", "-c", "0"]}
FIGURES = ("val_hm", "test_hm", "test_auc", "failed_frac")
COUNTS = ("attempted", "kept")  # diffupt's per-class generation counts


def fields(report: dict) -> dict:
    """The compared fields of one parsed ``report`` line."""
    out = {"weight_hash": report["weight_hash"], **{k: report["figures"][k] for k in FIGURES}}
    out.update({k: report[k] for k in COUNTS if k in report})
    return out


def compare(parent: dict, change: dict) -> list[str]:
    """One ``name value equal`` or ``name parent -> change moved`` entry per
    field of either report, in ``fields`` order."""
    a, b = fields(parent), fields(change)
    out = []
    for name in a | b:
        pa, pb = repr(a.get(name)), repr(b.get(name))
        out.append(f"{name} {pa} equal" if pa == pb else f"{name} {pa} -> {pb} moved")
    return out


def report_of(stdout: str) -> dict | None:
    """The parsed ``report`` line of a run's standard output, if it printed one."""
    lines = [line for line in stdout.splitlines() if line.startswith("report ")]
    return json.loads(lines[0][len("report "):]) if lines else None


def run(checkout: Path, workload: str, seed: int, mode: str) -> tuple[dict | None, str | None]:
    """The ``report`` of one run in ``checkout``, and why the run failed (None if it did not)."""
    cmd = [*MODES[mode], sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    report = report_of(proc.stdout)
    if proc.returncode != 0:
        return report, f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    if not json.loads(proc.stdout.splitlines()[-1])["correct"]:
        return report, f"not correct: {report['errors']}"
    return report, None


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    parent_dir, change_dir = map(Path, argv)
    failed = False
    for workload in WORKLOADS:
        for seed in SEEDS:
            for mode in MODES:
                (parent, err_p), (change, err_c) = (run(d, workload, seed, mode) for d in (parent_dir, change_dir))
                head = f"{workload} seed {seed} {mode}:"
                for side, err in (("parent", err_p), ("change", err_c)):
                    if err:
                        failed = True
                        print(head, side, err, flush=True)
                if parent is not None and change is not None:
                    print(head, ", ".join(compare(parent, change)), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
