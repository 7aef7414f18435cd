"""The trend-table script reads every file and key it reports on."""

import importlib.util
import math
import shutil
from pathlib import Path

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
