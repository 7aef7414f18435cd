"""The trend-table script reads every file and key it reports on, and its
paired comparison gates a mean drop beyond a metric's tolerance."""

import importlib.util
import math
import shutil
import statistics
from pathlib import Path

import pytest

from qreform.files import read_tsv
from qreform.mining import PAIRS_KIND
from qreform.pipeline import PipelinePaths

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "trend_table.py"


def load_script():
    spec = importlib.util.spec_from_file_location("trend_table", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_seed_reads_a_finished_run(tiny_run, tmp_path, capsys):
    config, run = tiny_run
    out_dir = tmp_path / f"seed{config.seed}"
    shutil.copytree(run.out_dir, out_dir)
    row = load_script().run_seed(config, tmp_path, config.seed, verbose=True)
    assert capsys.readouterr().out.count("up to date, skipped") == 9
    paths = PipelinePaths(out_dir)
    shard_rows = sum(
        len(read_tsv(path, PAIRS_KIND, has_columns=True)[1])
        for path in (paths.pairs_train, paths.pairs_val, paths.pairs_test)
    )
    assert row["pairs_grouped"] == shard_rows > 0
    assert row["pairs_ungrouped"] > 0
    assert all(math.isfinite(value) for value in row.values())


def rows(metric, deltas, base=0.5):
    """Parent and change rows on seeds 0.., the change's ``metric`` moved
    by ``deltas``; an ungated ``seconds`` moves by far more."""
    parent = [{"seed": s, "seconds": 10.0, metric: base} for s in range(len(deltas))]
    change = [{"seed": s, "seconds": 99.0, metric: base + d} for s, d in enumerate(deltas)]
    return parent, change


def by_metric(results):
    return {r["metric"]: r for r in results}


def test_compare_reports_paired_deltas_their_mean_and_spread():
    script = load_script()
    parent, change = rows("recall_ance", [0.01, -0.03, 0.02])
    result = by_metric(script.compare(parent, change))["recall_ance"]
    assert result["seeds"] == [0, 1, 2]
    assert result["deltas"] == pytest.approx([0.01, -0.03, 0.02])
    assert result["mean"] == pytest.approx(0.0, abs=1e-12)
    assert result["spread"] == pytest.approx(statistics.stdev([0.01, -0.03, 0.02]))
    assert result["tolerance"] == script.TOLERANCES["recall_ance"]
    assert result["passed"] is True


def test_compare_fails_a_mean_drop_beyond_the_tolerance_only():
    script = load_script()
    for metric, tolerance in script.TOLERANCES.items():
        # One seed may fall far, if the mean stays within the tolerance.
        within = [-2.5 * tolerance, 0.5 * tolerance, 0.5 * tolerance]
        beyond = [-2.0 * tolerance, -2.0 * tolerance, -0.5 * tolerance]
        rise = [3.0 * tolerance] * 3
        for deltas, passed in ((within, True), (beyond, False), (rise, True)):
            results = by_metric(script.compare(*rows(metric, deltas)))
            assert results[metric]["passed"] is passed, (metric, deltas)
            assert results["seconds"]["passed"] is None


def test_compare_pairs_rows_by_seed():
    script = load_script()
    parent, change = rows("tail_rate", [0.0, 0.0, -0.5])
    # Only seeds 1 and 2 are paired; the change's seed 7 has no parent row.
    result = by_metric(script.compare(parent[1:], change[::-1] + [{**change[0], "seed": 7}]))
    assert result["tail_rate"]["seeds"] == [2, 1]
    assert result["tail_rate"]["deltas"] == [-0.5, 0.0]
    with pytest.raises(ValueError, match="no seed in common"):
        script.compare(parent[:1], change[1:])


def test_two_copies_of_the_tiny_run_give_zero_deltas(tiny_run, tmp_path):
    config, run = tiny_run
    script = load_script()
    copies = []
    for side in ("parent", "change"):
        shutil.copytree(run.out_dir, tmp_path / side / f"seed{config.seed}")
        copies.append([script.run_seed(config, tmp_path / side, config.seed, verbose=False)])
    results = script.compare(*copies)
    gated = [r for r in results if r["tolerance"] is not None]
    assert {r["metric"] for r in gated} == set(script.TOLERANCES)
    assert all(r["deltas"] == [0.0] for r in results if r["metric"] != "seconds")
    assert all(r["passed"] for r in gated)
