"""The digest comparison of scripts/digest_gate.py, on hand-made manifests."""

import importlib.util
import sys
from pathlib import Path

from qreform.pipeline import PipelineConfig
from tests.conftest import tiny_config

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "digest_gate.py"
BENCH_RUN = ROOT / "bench" / "run.py"


def load_script():
    spec = importlib.util.spec_from_file_location("digest_gate", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


OUTPUTS = {
    "synth-gen": {"behavior_log.tsv": "aa", "intents.tsv": "bb"},
    "evaluate": {"report_a.json": "cc"},
}


def test_equal_outputs_differ_nowhere():
    gate = load_script()
    copy = {stage: dict(files) for stage, files in OUTPUTS.items()}
    assert gate.differences(OUTPUTS, copy) == []


def test_a_changed_digest_is_listed_with_both_values():
    gate = load_script()
    change = {**OUTPUTS, "evaluate": {"report_a.json": "dd"}}
    assert gate.differences(OUTPUTS, change) == [
        "evaluate/report_a.json: parent cc, change dd"
    ]


def test_an_output_on_one_side_only_is_listed():
    gate = load_script()
    change = {**OUTPUTS, "evaluate": {"report_a.json": "cc", "report_b.json": "ee"}}
    parent = {"synth-gen": OUTPUTS["synth-gen"]}
    assert gate.differences(parent, change) == [
        "evaluate/report_a.json: parent missing, change cc",
        "evaluate/report_b.json: parent missing, change ee",
    ]
    assert gate.differences(change, parent) == [
        "evaluate/report_a.json: parent cc, change missing",
        "evaluate/report_b.json: parent ee, change missing",
    ]


def test_an_output_that_moves_stage_is_listed():
    gate = load_script()
    change = {"synth-gen": {"behavior_log.tsv": "aa"}, "evaluate": {
        "report_a.json": "cc", "intents.tsv": "bb"}}
    assert gate.differences(OUTPUTS, change) == [
        "evaluate/intents.tsv: parent missing, change bb",
        "synth-gen/intents.tsv: parent bb, change missing",
    ]


def test_the_tiny_config_is_the_test_suites():
    gate = load_script()
    spec = {**gate.TINY, "seed": 0, "out_dir": gate.OUT_DIR}
    assert PipelineConfig.from_dict(spec) == tiny_config(gate.OUT_DIR)
    assert PipelineConfig.from_dict({**gate.CONFIGS["default"], "out_dir": gate.OUT_DIR}) == (
        PipelineConfig(out_dir=gate.OUT_DIR)
    )


def test_the_base_config_is_the_benchmarks(monkeypatch):
    gate = load_script()
    # run.py puts bench/ on sys.path; undo that after the test.
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH_RUN)
    bench_run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_run)
    assert gate.BASE == bench_run.BASE
    assert gate.CONFIGS["base"] is gate.BASE
