"""The paired benchmark summary, on hand-made benchmark lines."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
DECLARED = [
    {"name": "p50_ms", "better": "lower", "bound": 0.25},
    {"name": "qps", "better": "higher", "bound": 0.25},
]


def load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def line(**metrics):
    return {
        "correct": True,
        "attempted": 10,
        "failed": 0,
        "metrics": {name: {"value": value, "unit": "x"} for name, value in metrics.items()},
    }


def runs_of(parent, change, name="p50_ms"):
    return {
        "parent": {str(i): line(**{name: v}) for i, v in enumerate(parent)},
        "change": {str(i): line(**{name: v}) for i, v in enumerate(change)},
    }


def test_pairs_alternate_which_side_runs_first():
    calls = []
    runs = load_script().run_pairs(lambda side, seed: calls.append((side, seed)) or {}, 3, 100)
    assert calls == [
        ("parent", 100), ("change", 100),
        ("change", 101), ("parent", 101),
        ("parent", 102), ("change", 102),
    ]
    assert {side: list(r) for side, r in runs.items()} == {
        "parent": ["100", "101", "102"], "change": ["100", "101", "102"],
    }


def test_gain_holds_on_nine_wins_and_a_gap_beyond_the_parent_iqr():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]
    change = [0.80, 0.81, 0.79, 0.82, 0.80, 0.78, 0.81, 0.80, 1.05, 0.79]
    row = load_script().summarize(runs_of(parent, change), DECLARED)["p50_ms"]
    assert row["parent"]["median"] == 1.0 and row["parent"]["runs"] == 10
    assert (row["parent"]["q1"], row["parent"]["q3"]) == pytest.approx((0.9925, 1.01))
    assert row["change_better_in_pairs"] == "9/10"
    assert row["change_worse_by_share_of_parent_median"] == -0.2
    assert row["bound"] == 0.25
    assert row["within_bound"] and row["gain_holds"]


def test_gain_needs_nine_tenths_of_the_pairs():
    parent = [1.0] * 10
    change = [0.8] * 8 + [1.2, 1.2]
    row = load_script().summarize(runs_of(parent, change), DECLARED)["p50_ms"]
    assert row["change_better_in_pairs"] == "8/10"
    assert not row["gain_holds"]


def test_gain_needs_a_gap_beyond_the_parent_iqr():
    parent = [0.8, 0.9, 1.0, 1.1, 1.2] * 2
    change = [p - 0.01 for p in parent]
    row = load_script().summarize(runs_of(parent, change), DECLARED)["p50_ms"]
    assert row["change_better_in_pairs"] == "10/10"
    assert not row["gain_holds"]


def test_ties_count_for_neither_side():
    row = load_script().summarize(runs_of([0.95] * 10, [0.95] * 10), DECLARED)["p50_ms"]
    assert row["change_better_in_pairs"] == "0/10"
    assert row["change_worse_by_share_of_parent_median"] == 0.0
    assert row["within_bound"] and not row["gain_holds"]


def test_higher_is_better_metric_and_a_breached_bound():
    row = load_script().summarize(runs_of([1000.0] * 3, [700.0] * 3, "qps"), DECLARED)["qps"]
    assert row["change_better_in_pairs"] == "0/3"
    assert row["change_worse_by_share_of_parent_median"] == 0.3
    assert not row["within_bound"] and not row["gain_holds"]


def test_a_metric_missing_from_a_run_leaves_that_pair_out():
    runs = runs_of([1.0, 1.0, 1.0], [0.5, 0.5, 0.5])
    runs["change"]["1"] = load_script().final_json_line("traceback\n", "boom", 1)
    summary = load_script().summarize(runs, DECLARED)
    assert summary["p50_ms"]["change"]["runs"] == 2
    assert "qps" not in summary
    assert runs["change"]["1"]["failed"] == 1 and "boom" in runs["change"]["1"]["error"]


def test_spread_is_checked_against_the_bound_on_each_side():
    parent = [1000.0, 1100.0, 1200.0, 1300.0, 1400.0]
    change = [1200.0, 1500.0, 1800.0, 2100.0, 2400.0]
    row = load_script().summarize(runs_of(parent, change, "qps"), DECLARED)["qps"]
    # Bound: 0.25 of the parent's median, 300; the IQRs are 200 and 600.
    assert row["spread_within_bound"] == {"parent": True, "change": False}
    assert row["within_bound"] and row["gain_holds"]
