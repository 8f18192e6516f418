"""``tools/parent_check.py``: the field comparison on hand-written report lines,
the experiments' digests, and the table it prints."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

_spec = importlib.util.spec_from_file_location("parent_check", Path(__file__).parents[1] / "tools" / "parent_check.py")
parent_check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parent_check)

PARENT = (
    'report {"workload": "diffupt", "seed": 3, "weight_hash": "9c74694440551da3", "figures": {"setup_s": 0.1, '
    '"wall_s": 9.0, "failed_frac": 0.5, "val_hm": 0.0, "test_hm": NaN, "test_auc": 0.71}, '
    '"attempted": [250, 250], "kept": [100, 0], "errors": []}'
)
CHANGE = (
    'report {"workload": "diffupt", "seed": 3, "weight_hash": "9c74694440551da4", "figures": {"setup_s": 0.2, '
    '"wall_s": 8.0, "failed_frac": 0.5, "val_hm": 0.0, "test_hm": NaN, "test_auc": 0.7100000000000001}, '
    '"attempted": [250, 250], "kept": [100, 0], "errors": []}'
)


def test_each_field_is_equal_only_when_bitwise_the_same_and_times_are_not_compared():
    parent, change = (parent_check.report_of(f"env {{}}\n{line}\n{{}}") for line in (PARENT, CHANGE))
    assert parent_check.compare(parent, change) == [
        "weight_hash '9c74694440551da3' -> '9c74694440551da4' moved",
        "val_hm 0.0 equal",
        "test_hm nan equal",
        "test_auc 0.71 -> 0.7100000000000001 moved",
        "failed_frac 0.5 equal",
        "attempted [250, 250] equal",
        "kept [100, 0] equal",
    ]


def test_a_run_without_a_report_line_has_none():
    assert parent_check.report_of("env {}\nTraceback (most recent call last):\n") is None


# ---------------------------------------------------------------------------
# the experiments' digests
# ---------------------------------------------------------------------------

ROOT = Path(__file__).parents[1]


def _stats(seconds, kept=(3, 3)):
    from diffupt.pipeline import GenerationStats

    return GenerationStats(requested=(3, 3), attempted=(6, 6), kept=kept, sampling_seconds=seconds)


def test_digest_leaves_out_wall_times_and_sees_every_other_bit():
    base = [_stats(1.5), {"auc": 0.71, "bhattacharyya": float("nan")}, np.zeros((2, 3))]
    assert parent_check.digest(base) == parent_check.digest([_stats(9.0), *base[1:]])  # only the time differs
    moved = [
        [_stats(1.5, kept=(3, 2)), *base[1:]],
        [base[0], {"auc": 0.7100000000000001, "bhattacharyya": float("nan")}, base[2]],
        [*base[:2], np.zeros((3, 2))],  # same bytes, another shape
        [*base[:2], np.zeros((2, 3), dtype=np.float32)],
        base[:2],
    ]
    assert len({parent_check.digest(x) for x in [base, *moved]}) == 1 + len(moved)


def test_digest_refuses_objects_it_would_only_know_by_repr():
    with pytest.raises(TypeError, match="object"):
        parent_check.digest([1.0, object()])


def test_an_experiment_reruns_to_the_same_digests_and_keeps_its_classifiers_weights():
    result, weights = parent_check.tiny_experiment("diffupt_run")
    assert len(weights) == 2  # the baseline and DiffuPT's classifier
    assert weights[1] == result.model.weight_bytes()
    assert parent_check.experiment_digests("diffupt_run") == {
        "figures": parent_check.digest(result),
        "weights": parent_check.digest(weights),
    }


def test_an_experiment_run_in_a_checkout_imports_that_checkouts_program():
    out, err = parent_check.run_experiment(ROOT, "diffupt_run", "lanes")
    assert err is None
    assert out == parent_check.experiment_digests("diffupt_run")


def test_only_a_failed_run_fails_the_check_and_moved_fields_are_listed(monkeypatch, capsys):
    def fake_run(checkout, workload, seed, mode):
        moved = str(checkout) == "change" and workload == "compare" and seed == 1
        return {"weight_hash": "b" if moved else "a", "figures": dict.fromkeys(parent_check.FIGURES, 0.5)}, None

    def fake_experiment(checkout, name, mode):
        return {"figures": "f", "weights": "w2" if str(checkout) == "change" and name == "diffupt_run" else "w"}, None

    monkeypatch.setattr(parent_check, "run", fake_run)
    monkeypatch.setattr(parent_check, "run_experiment", fake_experiment)
    assert parent_check.main(["parent", "change"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 * (len(parent_check.WORKLOADS) * len(parent_check.SEEDS) + len(parent_check.EXPERIMENTS))
    assert [line for line in lines if "moved" in line] == [
        "compare seed 1 lanes: weight_hash 'a' -> 'b' moved, val_hm 0.5 equal, test_hm 0.5 equal, test_auc 0.5 equal, failed_frac 0.5 equal",
        "compare seed 1 inline: weight_hash 'a' -> 'b' moved, val_hm 0.5 equal, test_hm 0.5 equal, test_auc 0.5 equal, failed_frac 0.5 equal",
        "diffupt_run lanes: figures 'f' equal, weights 'w' -> 'w2' moved",
        "diffupt_run inline: figures 'f' equal, weights 'w' -> 'w2' moved",
    ]

    monkeypatch.setattr(parent_check, "run_experiment", lambda checkout, name, mode: (None, "exit 1: boom"))
    assert parent_check.main(["parent", "change"]) == 1
    assert "filtering_ablation inline: parent exit 1: boom" in capsys.readouterr().out


def test_an_unknown_experiment_prints_the_usage():
    with pytest.raises(SystemExit, match="PARENT_DIR CHANGE_DIR"):
        parent_check.main(["--experiment", "nope"])
