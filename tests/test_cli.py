"""End-to-end exercises of the command line front end."""

import json
import re

import pytest

from qreform.cli import STAGE_COMMANDS, main
from qreform.encoders import load_checkpoint
from qreform.evaluation import load_report
from qreform.knn import build_index, load_index, save_index
from qreform.pipeline import MODEL_RETRIEVER_WEIGHTED, PipelinePaths, model_ids
from tests.conftest import copied_run, tiny_config, truncate


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


@pytest.mark.parametrize("model", model_ids(tiny_config("unused").ance_rounds))
def test_evaluate_command_prints_saved_report(tiny_run, tmp_path, capsys, model):
    # The tiny run's eval_k is short enough that re-ranking another
    # round's lists would change the re-rankers' reports.
    config, run = tiny_run
    code = main(["evaluate", *_config_args(config, tmp_path), "--model", model])
    assert code == 0
    saved = load_report(PipelinePaths(run.out_dir).report(model))
    assert capsys.readouterr().out == saved.formatted()


def test_evaluate_command_names_the_models_a_run_reports_on(tiny_run, tmp_path, capsys):
    # A run keeps only the final ANCE round, so an earlier round is unknown.
    config, _ = tiny_run
    code = main(["evaluate", *_config_args(config, tmp_path), "--model", "retriever_ance_r1"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: evaluate: unknown model id: 'retriever_ance_r1'")
    for model in model_ids(config.ance_rounds):
        assert model in err


@pytest.mark.parametrize(
    "argv",
    [
        ["evaluate", "--model", "retriever_weighted", "--mode", "audit"],
        ["ance", "--rounds", "1"],
        ["ance", "--top-k", "5"],
        ["augment", "--source-value", "0.2", "--tier", "rich", "--all-tiers"],
    ],
    ids=["evaluate-mode", "ance-rounds", "ance-top-k", "augment-all-tiers"],
)
def test_removed_options_are_usage_errors(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exited:
        main([*argv, "--out-dir", str(tmp_path / "run")])
    assert exited.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "option, value",
    [(option, value) for option in ("--top-k", "--n-max") for value in ("0", "-1")]
    + [("--threshold", value) for value in ("nan", "inf")],
)
def test_reformulate_command_rejects_counts_below_one(tiny_run, tmp_path, capsys, option, value):
    config, _ = tiny_run
    argv = ["reformulate", *_config_args(config, tmp_path), "--query", "mask", option, value]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: reformulate:")
    name = option[2:].replace("-", "_")
    assert re.search(f"{name} must be (>= 1|finite), got {value}", err)


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


def _keep_header_only(path):
    path.write_text(path.read_text(encoding="utf-8").splitlines()[0] + "\n", encoding="utf-8")


def _hold_nan(path):
    path.write_text(path.read_text(encoding="utf-8").splitlines()[0] + "\nnan\n", encoding="utf-8")


@pytest.mark.parametrize(
    "artifact, damage",
    [
        (lambda paths: paths.threshold, _keep_header_only),
        (lambda paths: paths.threshold, _hold_nan),
        (lambda paths: paths.index_file, truncate),
        (lambda paths: paths.reranker_circle, lambda path: path.write_bytes(b"")),
    ],
    ids=["threshold-without-row", "threshold-nan", "truncated-index", "empty-checkpoint"],
)
def test_reformulate_command_names_a_damaged_file(tiny_run, tmp_path, capsys, artifact, damage):
    config = copied_run(tiny_run, tmp_path)
    path = artifact(PipelinePaths(config.out_dir))
    damage(path)
    code = main(["reformulate", *_config_args(config, tmp_path), "--query", "mask"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: reformulate:")
    assert str(path) in err


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
    assert main([*base, "--alpha", "0.5", "--tier", "impoverished"]) == 0
    assert capsys.readouterr().out.strip() == "0.500000"
    for tier in ("Rich", "tail"):
        with pytest.raises(SystemExit) as exited:
            main([*base, "--alpha", "0.5", "--tier", tier])
        assert exited.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


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
    path = tmp_path / "config.json"
    data = {**tiny_config(tmp_path / "run").to_dict(), "ance_rounds": 0}
    path.write_text(json.dumps(data), encoding="utf-8")
    code = main(["ance", "--config", str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ance:")
    assert "ance_rounds" in err


def test_evaluate_unknown_model_fails_cleanly(tiny_run, tmp_path, capsys):
    config, _ = tiny_run
    args = _config_args(config, tmp_path)
    code = main(["evaluate", *args, "--model", "nope"])
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
    assert "seed=7" in (run_dir / "behavior_log.tsv").read_text().split("\n")[0]


@pytest.mark.parametrize(
    "data, section, key",
    [
        ({"eval_kk": 5}, "top-level", "eval_kk"),
        ({"synth": {"n_intent": 5}}, "synth", "n_intent"),
        # Keys of earlier config files that no longer shape a run.
        ({"alpha": 0.8}, "top-level", "alpha"),
        ({"synth": {"seed": 7}}, "synth", "seed"),
        ({"synth": {"tail_product_bound": 6}}, "synth", "tail_product_bound"),
        ({"synth": {"zipf_exponent": 1.15}}, "synth", "zipf_exponent"),
    ],
)
def test_unknown_config_key_fails_cleanly(tmp_path, capsys, data, section, key):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    out_dir = tmp_path / "run"
    assert main(["pipeline", "--config", str(path), "--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: pipeline:")
    assert str(path) in err
    assert f"unknown {section} config keys: {key}" in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "data, message",
    [
        ({"synth": 5}, "synth config must be a JSON object, got int"),
        ([1, 2], "top-level config must be a JSON object, got list"),
        ({"hidden_dims": 5}, "hidden_dims config must be a JSON list, got int"),
        ({"seed": "x"}, "top-level config seed must be int, got str 'x'"),
        ({"seed": True}, "top-level config seed must be int, got bool True"),
        ({"batch_size": 2.5}, "top-level config batch_size must be int, got float 2.5"),
        ({"temperature": "hot"}, "top-level config temperature must be float, got str 'hot'"),
        ({"hidden_dims": ["a"]}, "top-level config hidden_dims must list int values, got 'a'"),
        (
            {"synth": {"n_intents": "many"}},
            "synth config n_intents must be int, got str 'many'",
        ),
    ],
    ids=[
        "synth-not-object",
        "top-level-list",
        "hidden_dims-not-list",
        "seed-str",
        "seed-bool",
        "batch_size-float",
        "temperature-str",
        "hidden_dims-item-str",
        "synth-n_intents-str",
    ],
)
def test_config_section_of_wrong_type_fails_cleanly(tmp_path, capsys, data, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    out_dir = tmp_path / "run"
    assert main(["pipeline", "--config", str(path), "--out-dir", str(out_dir)]) == 1
    assert capsys.readouterr().err == f"error: pipeline: {path}: {message}\n"
    assert not out_dir.exists()
