"""The field comparison of ``tools/parent_check.py`` on hand-written report lines."""

import importlib.util
from pathlib import Path

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
