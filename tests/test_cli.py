"""End-to-end exercises of the command line front end."""

import dataclasses
import json
import re
from pathlib import Path

import pytest

from qreform.cli import main
from qreform.encoders import load_checkpoint
from qreform.evaluation import load_report
from qreform.knn import build_index, load_index, save_index
from qreform.pipeline import (
    MODEL_RETRIEVER_ANCE,
    MODEL_RETRIEVER_WEIGHTED,
    STAGE_ORDER,
    PipelinePaths,
    model_ids,
)
from tests.conftest import (
    REMOVED_CONFIG_FIELDS,
    copied_run,
    run_recording_a_removed_field,
    tiny_config,
    truncate,
)


def _config_args(config, tmp_path):
    path = tmp_path / "config.json"
    config.save_json(path)
    return ["--config", str(path)]


def test_stage_commands_run_in_sequence(tmp_path, capsys):
    config = tiny_config(tmp_path / "run")
    args = _config_args(config, tmp_path)
    for name in STAGE_ORDER:
        assert main([name, *args]) == 0, name
        out = capsys.readouterr()
        assert "run directory:" in out.out
    # Every stage is now fresh.
    assert main(["pipeline", *args]) == 0
    assert capsys.readouterr().err.count("up to date, skipped") == 9


def test_pipeline_command_resumes(tiny_run, tmp_path, capsys):
    config, _ = tiny_run
    assert main(["pipeline", *_config_args(config, tmp_path)]) == 0
    err = capsys.readouterr().err
    assert err.count("up to date, skipped") == 9


def _tree(root) -> dict[str, bytes]:
    """Every file under a run directory, by relative path, with its bytes."""
    root = Path(root)
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


FINAL_TINY_MODEL = MODEL_RETRIEVER_ANCE.format(round=tiny_config("unused").ance_rounds)


@pytest.mark.parametrize(
    "argv",
    [
        ["pipeline"],
        ["evaluate"],
        ["evaluate", "--model", FINAL_TINY_MODEL],
        ["reformulate", "--query", "mask"],
    ],
    ids=["pipeline", "evaluate", "evaluate-final-model", "reformulate"],
)
def test_a_command_given_no_config_reads_the_runs_own(tiny_run, tmp_path, capsys, argv):
    # The tiny run is no default run: it has 2 ANCE rounds, not 3.
    config = copied_run(tiny_run, tmp_path)
    before = _tree(config.out_dir)
    assert main([*argv, "--out-dir", config.out_dir]) == 0
    captured = capsys.readouterr()
    assert _tree(config.out_dir) == before
    if argv[0] != "reformulate":
        assert captured.err.count("up to date, skipped") == (9 if argv == ["pipeline"] else 1)
        assert "done in" not in captured.err
    if "--model" in argv:
        report = load_report(PipelinePaths(config.out_dir).report(FINAL_TINY_MODEL))
        assert captured.out == report.formatted()


@pytest.mark.parametrize("change", ["config", "seed"])
def test_a_config_that_differs_from_the_runs_is_refused_unless_forced(
    tiny_run, tmp_path, capsys, change
):
    config = copied_run(tiny_run, tmp_path)
    if change == "config":
        synth = dataclasses.replace(config.synth, n_intents=13)
        given = dataclasses.replace(config, eval_k=5, synth=synth)
        args = _config_args(given, tmp_path)
        named = ["eval_k (run 10, given 5)", "synth.n_intents (run 12, given 13)"]
    else:
        given = dataclasses.replace(config, seed=1)
        args = ["--seed", "1"]
        named = ["seed (run 0, given 1)"]
    argv = ["pipeline", "--out-dir", config.out_dir, *args]
    before = _tree(config.out_dir)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: pipeline: run directory {config.out_dir} records another")
    assert all(field in err for field in named)
    assert "--force" in err
    assert _tree(config.out_dir) == before

    assert main([*argv, "--force"]) == 0
    assert capsys.readouterr().err.count("done in") == 9
    manifest = json.loads(PipelinePaths(config.out_dir).manifest.read_text(encoding="utf-8"))
    assert manifest["config"] == given.settings()


def test_a_run_that_records_no_config_is_refused_unless_forced(tiny_run, tmp_path, capsys):
    # A hand-edited manifest: no released version wrote one without a config.
    config = copied_run(tiny_run, tmp_path)
    manifest_path = PipelinePaths(config.out_dir).manifest
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    del manifest["config"]
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    before = _tree(config.out_dir)
    argv = ["pipeline", "--out-dir", config.out_dir]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: pipeline: run directory {config.out_dir} records no config")
    assert "--force" in err
    assert _tree(config.out_dir) == before
    assert main([*argv, "--force"]) == 0
    assert capsys.readouterr().err.count("done in") == 9


@pytest.mark.parametrize(
    "argv, given",
    [
        (["pipeline"], False),
        (["evaluate"], False),
        (["reformulate", "--query", "mask"], False),
        (["pipeline", "--force"], True),
    ],
    ids=["pipeline", "evaluate", "reformulate", "pipeline-given-config-forced"],
)
def test_a_run_whose_manifest_records_a_removed_field_is_refused(
    tiny_run, tmp_path, capsys, argv, given
):
    # Nothing migrates such a run: deleting its manifest rebuilds it.
    config = run_recording_a_removed_field(tiny_run, tmp_path)
    manifest = PipelinePaths(config.out_dir).manifest
    args = _config_args(config, tmp_path) if given else []
    before = _tree(config.out_dir)
    assert main([*argv, *args, "--out-dir", config.out_dir]) == 1
    assert capsys.readouterr().err == (
        f"error: {argv[0]}: {manifest}: unknown top-level config keys: temperature\n"
    )
    assert _tree(config.out_dir) == before


@pytest.mark.parametrize("model", model_ids(tiny_config("unused").ance_rounds))
def test_evaluate_command_prints_saved_report(tiny_run, tmp_path, capsys, model):
    config = copied_run(tiny_run, tmp_path)
    code = main(["evaluate", *_config_args(config, tmp_path), "--model", model])
    assert code == 0
    saved = load_report(PipelinePaths(config.out_dir).report(model))
    assert capsys.readouterr().out == saved.formatted()


def test_evaluate_command_reruns_only_a_stale_evaluate_stage(tiny_run, tmp_path, capsys):
    config = copied_run(tiny_run, tmp_path)
    paths = PipelinePaths(config.out_dir)
    final = MODEL_RETRIEVER_ANCE.format(round=config.ance_rounds)
    argv = ["evaluate", *_config_args(config, tmp_path), "--model", final]
    assert main(argv) == 0
    fresh = capsys.readouterr()
    assert fresh.err == "[evaluate] up to date, skipped\n"
    before = json.loads(paths.manifest.read_text(encoding="utf-8"))["stages"]

    paths.report(final).unlink()
    assert main(argv) == 0
    stale = capsys.readouterr()
    assert re.fullmatch(r"\[evaluate\] done in \S+s\n", stale.err)
    assert stale.out == fresh.out
    after = json.loads(paths.manifest.read_text(encoding="utf-8"))["stages"]
    assert after["evaluate"]["outputs"] == before["evaluate"]["outputs"]
    del before["evaluate"], after["evaluate"]
    assert after == before


@pytest.mark.parametrize("model", ["retriever_ance_r1", "nope"])
def test_evaluate_command_names_the_models_a_run_reports_on(tmp_path, capsys, model):
    # A run keeps only the final ANCE round, so an earlier round is unknown.
    config = tiny_config(tmp_path / "run")
    code = main(["evaluate", *_config_args(config, tmp_path), "--model", model])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: evaluate: unknown model id: {model!r}")
    for known in model_ids(config.ance_rounds):
        assert known in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["evaluate", "--model", "retriever_weighted", "--mode", "audit"], "unrecognized arguments"),
        (["ance", "--rounds", "1"], "unrecognized arguments"),
        (["ance", "--top-k", "5"], "unrecognized arguments"),
        (["augment", "--source-value", "0.2", "--tier", "rich"], "invalid choice"),
    ],
    ids=["evaluate-mode", "ance-rounds", "ance-top-k", "augment-all-tiers"],
)
def test_removed_options_are_usage_errors(tmp_path, capsys, argv, message):
    with pytest.raises(SystemExit) as exited:
        main([*argv, "--out-dir", str(tmp_path / "run")])
    assert exited.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


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
    recorded = json.loads(PipelinePaths(run_dir).manifest.read_text(encoding="utf-8"))["config"]
    assert recorded == {**config.settings(), "seed": 7}
    assert "seed=7" in (run_dir / "behavior_log.tsv").read_text().split("\n")[0]
    assert not (tmp_path / "ignored").exists()


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
        *(
            ({name: value}, "top-level", name)
            for name, value in REMOVED_CONFIG_FIELDS.items()
        ),
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
        ({"top_k": [5]}, "top-level config top_k must be int, got list [5]"),
        ({"seed": "x"}, "top-level config seed must be int, got str 'x'"),
        ({"seed": True}, "top-level config seed must be int, got bool True"),
        ({"eval_k": 2.5}, "top-level config eval_k must be int, got float 2.5"),
        ({"out_dir": 5}, "top-level config out_dir must be str, got int 5"),
        (
            {"synth": {"n_intents": "many"}},
            "synth config n_intents must be int, got str 'many'",
        ),
    ],
    ids=[
        "synth-not-object",
        "top-level-list",
        "top_k-list",
        "seed-str",
        "seed-bool",
        "eval_k-float",
        "out_dir-int",
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
