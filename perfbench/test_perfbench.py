"""Smoke tests of the benchmark at tiny sizes.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_workload_runs_checks_and_repeats(name):
    wl = W.WORKLOADS[name]
    state = wl.setup(3, W.TINY)
    first, second = wl.run(state), wl.run(state)
    assert first.errors == []
    assert first.requested > 0 and 0 <= first.unmet <= first.requested
    assert first.weight_hash == second.weight_hash
    assert first.metrics == second.metrics


def tiny_generation(seed=3):
    """The tiny diffupt context's baseline and stack, and one generation from them."""
    state = W.setup_real(seed, W.TINY)
    ctx = W.make_context(W.TINY)
    rng = W.RngStream(seed)
    baseline, stack = ctx.ensure_baseline(state.splits, rng), ctx.ensure_stack(state.splits, rng)
    plan = ctx.diffupt_cfg.generation
    try:
        synth, stats = W.P.generate_balanced_dataset(stack, plan, baseline, rng.split("generate"))
    except W.P.GenerationShortfallError as e:
        synth, stats = e.partial, e.stats
    return synth, stats, baseline, plan


def test_check_synthetic_catches_bad_outputs():
    synth, stats, baseline, plan = tiny_generation()
    assert len(synth) > 0
    assert W.check_synthetic(synth, stats.kept, baseline, plan.filter_threshold) == []
    swapped = (stats.kept[1], stats.kept[0]) if stats.kept[0] != stats.kept[1] else (stats.kept[0] + 1, stats.kept[1])
    assert W.check_synthetic(synth, swapped, None, 0.5)
    # no kept image can clear a threshold above 1
    assert W.check_synthetic(synth, stats.kept, baseline, 1.0 + 1e-9)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_seed_attempts_one_batch_per_class(seed):
    _, stats, _, plan = tiny_generation(seed)
    assert stats.attempted == (plan.gen_batch, plan.gen_batch)


def test_shortfall_is_counted_not_raised():
    state = W.setup_real(3, W.TINY)
    ctx = W.make_context(W.TINY)
    ctx.diffupt_cfg.generation = replace(ctx.diffupt_cfg.generation, filter_threshold=1.0 - 1e-12)
    out = W.diffupt_outcome(state.splits, ctx, W.RngStream(3))
    assert out.info["shortfall"] and out.unmet > 0
    assert out.errors == []


def test_traced_unit_restores_every_hook():
    originals = [tracing.lookup(owner, attr) for owner, attr, _, _ in tracing.HOOKS]
    state = W.setup_real(3, W.TINY)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert all(tracing.lookup(o, a) is not f for (o, a, _, _), f in zip(tracing.HOOKS, originals))
        W.run_diffupt(state)
    assert all(tracing.lookup(o, a) is f for (o, a, _, _), f in zip(tracing.HOOKS, originals))
    figures = tracer.figures()
    for name in ("numcore.conv2d", "numcore.backward", "numcore.adam_step", "diffusion.predict", "latentae.decode"):
        assert figures[f"{name}.calls"] > 0
    assert figures["numcore.conv2d.calls"] == figures["numcore.conv2d.calls.train"] + figures["numcore.conv2d.calls.infer"]
    assert all(row["self_s"] >= -1e-9 for row in tracer.self_times().values())


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    rows = tracer.self_times()
    total = rows[("outer", None)]["total_s"]
    assert rows[("inner", None)]["calls"] == 3
    assert rows[("outer", None)]["self_s"] == pytest.approx(total - rows[("inner", None)]["total_s"])


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_matches_benchmark_json(monkeypatch, capsys, trace):
    monkeypatch.setattr(W, "FULL", W.TINY)
    assert run.main(["--workload", "compare", "--seed", "1", "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]} for m in wanted
    }


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "diffupt", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_is_within_its_limits():
    name = r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}"
    unit = r"[A-Za-z0-9_/%.-]{1,16}"
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"] and 1 <= SPEC["run_seconds"] <= 60
    assert all(len(c) <= 200 and not c.startswith("/") and ".." not in c for c in SPEC["command"])
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert {w["name"] for w in SPEC["workloads"]} <= set(W.WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and re.fullmatch(name, w["name"]) and len(w["why"]) <= 200
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(name, m["name"]) and re.fullmatch(unit, m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
