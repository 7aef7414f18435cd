"""End-to-end exercises of the command line front end."""

import json

import pytest

from qreform.cli import STAGE_COMMANDS, main
from qreform.encoders import load_checkpoint
from qreform.knn import build_index, load_index, save_index
from qreform.pipeline import MODEL_RETRIEVER_WEIGHTED, PipelinePaths
from tests.conftest import copied_run, tiny_config


def _config_args(config, tmp_path):
    path = tmp_path / "config.json"
    config.save_json(path)
    return ["--config", str(path)]


def test_stage_commands_run_in_sequence(tmp_path, capsys):
    config = tiny_config(tmp_path / "run")
    args = _config_args(config, tmp_path)
    for name in STAGE_COMMANDS:
        assert main([name, *args]) == 0, name
        out = capsys.readouterr()
        assert "run directory:" in out.out
    # Everything but the evaluate stage is now fresh.
    assert main(["pipeline", *args]) == 0
    err = capsys.readouterr().err
    assert "[evaluate] done" in err
    assert "[mine] up to date, skipped" in err


def test_pipeline_command_resumes(tiny_run, tmp_path, capsys):
    config, _ = tiny_run
    assert main(["pipeline", *_config_args(config, tmp_path)]) == 0
    err = capsys.readouterr().err
    assert err.count("up to date, skipped") == 9


def test_evaluate_command_prints_report(tiny_run, tmp_path, capsys):
    config, _ = tiny_run
    args = _config_args(config, tmp_path)
    code = main(["evaluate", *args, "--model", "retriever_weighted", "--mode", "audit"])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "model\tretriever_weighted"
    names = {line.split("\t")[0] for line in lines[1:]}
    assert names == {"auroc_strict", "auroc_notrel", "spearman"}


def test_evaluate_command_rerank_mode(tiny_run, tmp_path, capsys):
    config, _ = tiny_run
    args = _config_args(config, tmp_path)
    code = main(
        ["evaluate", *args, "--model", "reranker_circle_ance", "--mode", "rerank"]
    )
    assert code == 0
    assert "ndcg3_hard\t" in capsys.readouterr().out


@pytest.mark.parametrize(
    "model, mode",
    [
        ("retriever_weighted", "rerank"),
        ("reranker_circle_ance", "retrieval"),
        ("reranker_circle_ance", "audit"),
    ],
)
def test_evaluate_command_rejects_mode_of_other_model_kind(
    tiny_run, tmp_path, capsys, model, mode
):
    config, _ = tiny_run
    args = _config_args(config, tmp_path)
    code = main(["evaluate", *args, "--model", model, "--mode", mode])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: evaluate:")
    assert repr(model) in err and repr(mode) in err


def test_reformulate_command_output_format(tiny_run, tmp_path, capsys):
    config, _ = tiny_run
    args = _config_args(config, tmp_path)
    code = main(
        [
            "reformulate",
            *args,
            "--query",
            "mask",
            "--top-k",
            "5",
            "--threshold",
            "0.0",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    for line in out.splitlines():
        target, score = line.split("\t")
        assert target
        float(score)


def test_reformulate_command_can_return_nothing(tiny_run, tmp_path, capsys):
    config, _ = tiny_run
    args = _config_args(config, tmp_path)
    code = main(
        ["reformulate", *args, "--query", "mask", "--threshold", "1.5"]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no reformulations" in captured.err


def test_reformulate_command_rejects_index_of_another_model(tiny_run, tmp_path, capsys):
    config = copied_run(tiny_run, tmp_path)
    paths = PipelinePaths(config.out_dir)
    pool = load_index(paths.index_file).query_ids
    weighted = load_checkpoint(paths.checkpoint(MODEL_RETRIEVER_WEIGHTED))
    save_index(build_index(weighted, pool), paths.index_file)
    code = main(["reformulate", *_config_args(config, tmp_path), "--query", "mask"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: reformulate:")
    assert str(paths.index_file) in err


def test_augment_command_worked_example(capsys):
    code = main(
        [
            "augment",
            "--source-value",
            "0.2",
            "--target-values",
            "0.4,0.8",
            "--alpha",
            "0.5",
            "--beta",
            "1.0",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "0.400000"


def test_augment_command_tier_gate(capsys):
    base = ["augment", "--source-value", "0.2", "--target-values", "0.8"]
    assert main([*base, "--alpha", "0.5", "--tier", "rich"]) == 0
    assert capsys.readouterr().out.strip() == "0.200000"
    assert main([*base, "--alpha", "0.5", "--tier", "rich", "--all-tiers"]) == 0
    assert capsys.readouterr().out.strip() == "0.500000"


def test_augment_command_rejects_empty_targets(capsys):
    code = main(["augment", "--source-value", "0.2", "--alpha", "0.5"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: augment:")


def test_stage_failure_is_stage_qualified(tmp_path, capsys):
    config = tiny_config(tmp_path / "run")
    args = _config_args(config, tmp_path)
    # No synth data yet, so ingest cannot find its input log.
    code = main(["ingest", *args])
    assert code == 1
    assert "stage 'ingest' failed" in capsys.readouterr().err


def test_ance_command_rejects_zero_rounds(tmp_path, capsys):
    config = tiny_config(tmp_path / "run")
    code = main(["ance", *_config_args(config, tmp_path), "--rounds", "0"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ance:")
    assert "ance_rounds" in err


def test_evaluate_unknown_model_fails_cleanly(tiny_run, tmp_path, capsys):
    config, _ = tiny_run
    args = _config_args(config, tmp_path)
    code = main(["evaluate", *args, "--model", "nope", "--mode", "audit"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: evaluate:")


def test_seed_and_out_dir_overrides(tmp_path, capsys):
    config = tiny_config(tmp_path / "ignored")
    path = tmp_path / "config.json"
    config.save_json(path)
    run_dir = tmp_path / "other"
    code = main(
        [
            "synth-gen",
            "--config",
            str(path),
            "--seed",
            "7",
            "--out-dir",
            str(run_dir),
        ]
    )
    assert code == 0
    capsys.readouterr()
    written = json.loads((run_dir / "config.json").read_text())
    assert written["seed"] == 7
    assert written["synth"]["seed"] == 7
