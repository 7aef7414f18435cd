"""Pipeline orchestration, inference ops, feature augmentation."""

import dataclasses
import json

import pytest

from qreform.ance import load_hard_negatives
from qreform.corpus import TIER_IMPOVERISHED, TIER_RICH, load_corpus
from qreform.encoders import load_checkpoint, params_checksum
from qreform.evaluation import EvalReport, load_report
from qreform.files import read_tsv
from qreform.knn import load_index
from qreform.mining import load_pairs
from qreform.pipeline import (
    MODEL_RERANKER_CIRCLE,
    MODEL_RETRIEVER_BASELINE,
    MODEL_RETRIEVER_WEIGHTED,
    AugmentationParams,
    PipelineConfig,
    PipelinePaths,
    StageFailure,
    augment_feature,
    augment_for_tier,
    evaluate_model,
    load_threshold,
    reformulate,
    run_pipeline,
    select_threshold,
    tail_reformulation_rate,
)
from tests.conftest import copied_run, tiny_config


# --- augmentation ---


def test_augment_alpha_one_is_identity():
    params = AugmentationParams(alpha=1.0)
    assert augment_feature(0.3, [], params) == 0.3
    assert augment_feature(0.3, [0.9], params) == 0.3


def test_augment_alpha_zero_single_target_passthrough():
    params = AugmentationParams(alpha=0.0, beta=1.0)
    assert augment_feature(0.3, [0.7], params) == pytest.approx(0.7, abs=1e-12)


def test_augment_worked_example():
    params = AugmentationParams(alpha=0.5, beta=1.0)
    assert augment_feature(0.2, [0.4, 0.8], params) == pytest.approx(0.4, abs=1e-12)


def test_augment_empty_targets_error():
    with pytest.raises(ValueError):
        augment_feature(0.2, [], AugmentationParams(alpha=0.5))


def test_augment_convexity_bounds():
    params = AugmentationParams(alpha=0.3, beta=1.0)
    value = augment_feature(0.9, [0.1, 0.5, 1.0], params)
    assert 0.0 <= value <= 1.0


def test_augment_params_validation():
    with pytest.raises(ValueError):
        AugmentationParams(alpha=1.2)
    with pytest.raises(ValueError):
        AugmentationParams(beta=-0.1)


def test_augment_tier_gate():
    params = AugmentationParams(alpha=0.5, beta=1.0)
    assert augment_for_tier(TIER_RICH, 0.2, [0.8], params) == 0.2
    assert augment_for_tier(TIER_IMPOVERISHED, 0.2, [0.8], params) == pytest.approx(
        0.5 * 0.2 + 0.5 * 0.8
    )
    assert augment_for_tier(TIER_RICH, 0.2, [0.8], params, tail_only=False) != 0.2


# --- threshold selection ---


def test_select_threshold_separable():
    threshold = select_threshold([0.9, 0.8, 0.7], [0.2, 0.1])
    assert 0.2 < threshold <= 0.7


def test_select_threshold_picks_best_f1():
    # pos {0.9, 0.6}, neg {0.7}: cutoff 0.9 -> F1 2/3; cutoff 0.6 -> 0.8.
    assert select_threshold([0.9, 0.6], [0.7]) == pytest.approx(0.6)


def test_select_threshold_needs_both_classes():
    with pytest.raises(ValueError):
        select_threshold([0.5], [])


# --- config serialization ---


def test_config_json_round_trip(tmp_path):
    config = tiny_config(tmp_path / "run", seed=3)
    path = tmp_path / "config.json"
    config.save_json(path)
    loaded = PipelineConfig.load_json(path)
    assert loaded == config
    assert loaded.config_hash() == config.config_hash()


def test_config_hash_tracks_changes(tmp_path):
    config = tiny_config(tmp_path / "run")
    changed = dataclasses.replace(config, mining_floor=0.05)
    assert changed.config_hash() != config.config_hash()


def test_config_seed_propagates_to_synth(tmp_path):
    config = tiny_config(tmp_path / "run", seed=9)
    assert config.synth.seed == 9


@pytest.mark.parametrize("rounds", [0, -1])
def test_config_rejects_fewer_than_one_ance_round(tmp_path, rounds):
    with pytest.raises(ValueError, match="ance_rounds"):
        dataclasses.replace(tiny_config(tmp_path / "run"), ance_rounds=rounds)


# --- the tiny end-to-end run ---


def test_pipeline_produces_reports_and_artifacts(tiny_run):
    config, run = tiny_run
    paths = PipelinePaths(run.out_dir)
    assert paths.manifest.exists()
    for model_id in (
        "retriever_top30_baseline",
        "retriever_weighted",
        "retriever_ance_r1",
        "retriever_ance_r2",
        "reranker_pointwise",
        "reranker_circle_ance",
    ):
        report = load_report(paths.report(model_id))
        assert report.model_id == model_id
    manifest = json.loads(paths.manifest.read_text())
    assert set(manifest["stages"]) == {
        "synth-gen",
        "ingest",
        "normalize",
        "mine",
        "train-retriever",
        "ance",
        "train-reranker",
        "index",
        "evaluate",
    }
    for entry in manifest["stages"].values():
        assert "seconds" in entry and "inputs" in entry and "outputs" in entry


def test_pipeline_rerun_skips_everything(tiny_run):
    config, _ = tiny_run
    second = run_pipeline(config)
    assert second.executed == []
    assert len(second.skipped) == 9


@pytest.mark.parametrize(
    "deleted, producer, consumer",
    [
        ("groups.tsv", "normalize", "mine"),
        ("trace_retriever_weighted.tsv", "train-retriever", "ance"),
    ],
)
def test_pipeline_reruns_only_producer_after_deleting_intermediate(
    tiny_run, deleted, producer, consumer
):
    config, run = tiny_run
    (run.out_dir / deleted).unlink()
    third = run_pipeline(config)
    assert third.executed == [producer]
    assert "synth-gen" in third.skipped
    # Downstream stages stayed fresh because the regenerated files are
    # byte-identical to the recorded checksums.
    assert consumer in third.skipped


def test_pipeline_input_change_cascades(tiny_run):
    config, run = tiny_run
    paths = PipelinePaths(run.out_dir)
    original = paths.threshold.read_text(encoding="utf-8")
    try:
        # Corrupt a train-reranker output: that stage must rerun.
        paths.threshold.write_text(
            original.replace(original.splitlines()[-1], "0.999999"),
            encoding="utf-8",
        )
        fourth = run_pipeline(config)
        assert "train-reranker" in fourth.executed
    finally:
        run_pipeline(config)


def test_pipeline_stage_failure_names_stage(tmp_path):
    config = tiny_config(tmp_path / "run")
    config = dataclasses.replace(config, rich_threshold=0)
    with pytest.raises(StageFailure, match="ingest"):
        run_pipeline(config)


def test_reformulate_excludes_self_and_respects_threshold(tiny_run):
    config, run = tiny_run
    paths = PipelinePaths(run.out_dir)
    bi_encoder = load_checkpoint(paths.retriever_ance(config.ance_rounds))
    cross_encoder = load_checkpoint(paths.reranker_circle)
    index = load_index(paths.index_file)
    indexed_query = index.query_ids[0]
    result = reformulate(
        indexed_query, bi_encoder, index, cross_encoder, top_k=10, threshold=0.0
    )
    assert indexed_query not in [t for t, _ in result.targets]
    assert len(result.targets) <= 10
    empty = reformulate(
        indexed_query, bi_encoder, index, cross_encoder, top_k=10, threshold=1.1
    )
    assert empty.targets == ()


def test_reformulate_targets_are_rich(tiny_run):
    config, run = tiny_run
    paths = PipelinePaths(run.out_dir)
    corpus = load_corpus(paths.norm_queries, paths.corpus_events)
    bi_encoder = load_checkpoint(paths.retriever_ance(config.ance_rounds))
    cross_encoder = load_checkpoint(paths.reranker_circle)
    index = load_index(paths.index_file)
    threshold = load_threshold(paths)
    result = reformulate(
        "mask", bi_encoder, index, cross_encoder, top_k=20, threshold=threshold
    )
    for target, _ in result.targets:
        assert corpus.queries[target].traffic_tier == TIER_RICH


def test_reformulate_rejects_empty_query(tiny_run):
    config, run = tiny_run
    paths = PipelinePaths(run.out_dir)
    bi_encoder = load_checkpoint(paths.retriever_ance(config.ance_rounds))
    cross_encoder = load_checkpoint(paths.reranker_circle)
    index = load_index(paths.index_file)
    with pytest.raises(ValueError):
        reformulate("", bi_encoder, index, cross_encoder)


def test_tail_reformulation_rate_computable(tiny_run):
    config, _ = tiny_run
    rate = tail_reformulation_rate(config)
    assert 0.0 <= rate <= 1.0


def test_evaluate_model_modes(tiny_run):
    config, run = tiny_run
    paths = PipelinePaths(run.out_dir)
    retrieval = evaluate_model(config, MODEL_RETRIEVER_BASELINE, "retrieval")
    assert f"recall{config.eval_k}_top3_micro" in retrieval.metrics
    saved = load_report(paths.report(MODEL_RETRIEVER_BASELINE))
    assert retrieval.metric_rows() == saved.metric_rows()
    audit = evaluate_model(config, MODEL_RETRIEVER_BASELINE, "audit")
    assert set(audit.metrics) == {"auroc_strict", "auroc_notrel", "spearman"}
    saved_audit = {name: saved.metrics[name] for name in audit.metrics}
    assert audit.metric_rows() == EvalReport("", saved_audit).metric_rows()
    # The stage must re-rank the final round's candidates, as this call
    # does; the tiny run's eval_k is short enough to tell the rounds apart.
    rerank = evaluate_model(config, MODEL_RERANKER_CIRCLE, "rerank")
    assert "ndcg3_hard" in rerank.metrics
    saved = load_report(paths.report(MODEL_RERANKER_CIRCLE))
    assert rerank.metric_rows() == saved.metric_rows()
    with pytest.raises(ValueError):
        evaluate_model(config, MODEL_RETRIEVER_BASELINE, "bogus")
    with pytest.raises(ValueError):
        evaluate_model(config, "no_such_model", "retrieval")


def test_each_ance_round_mines_with_the_previous_round_model(tiny_run):
    config, run = tiny_run
    paths = PipelinePaths(run.out_dir)
    previous = params_checksum(load_checkpoint(paths.checkpoint(MODEL_RETRIEVER_WEIGHTED)))
    for round_index in range(1, config.ance_rounds + 1):
        records = load_hard_negatives(paths.negatives(round_index))
        assert records
        for record in records:
            assert record.round_index == round_index
            assert record.source_checkpoint == previous
        current = params_checksum(load_checkpoint(paths.retriever_ance(round_index)))
        assert current != previous
        previous = current


def test_mined_pair_files_expose_split(tiny_run):
    config, run = tiny_run
    paths = PipelinePaths(run.out_dir)
    train = load_pairs(paths.pairs_train)
    test = load_pairs(paths.pairs_test)
    assert train and test
    _, rows = read_tsv(paths.test_queries, "test-queries")
    test_ids = {row[0] for row in rows}
    for pair in train:
        assert pair.source not in test_ids and pair.target not in test_ids
    base_train = load_pairs(paths.pairs_baseline_train)
    base_val = load_pairs(paths.pairs_baseline_val)
    assert base_train and base_val
    for pair in base_train + base_val:
        assert pair.source not in test_ids and pair.target not in test_ids
    assert len(base_val) == round((len(base_train) + len(base_val)) / 10)


def test_copied_run_resumes_under_new_out_dir(tiny_run, tmp_path):
    copy = copied_run(tiny_run, tmp_path)
    assert copy.config_hash() == tiny_run[0].config_hash()
    resumed = run_pipeline(copy)
    assert resumed.executed == []
    assert len(resumed.skipped) == 9


@pytest.mark.parametrize(
    "damage, n_rerun",
    [
        (lambda text, manifest: text[: len(text) // 2], 9),
        (lambda text, manifest: json.dumps({**manifest, "stages": []}), 9),
        (
            lambda text, manifest: json.dumps(
                {**manifest, "stages": {**manifest["stages"], "mine": []}}
            ),
            1,
        ),
    ],
    ids=["truncated", "stages-not-a-dict", "entry-not-a-dict"],
)
def test_corrupt_manifest_reruns_exactly(tiny_run, tmp_path, damage, n_rerun):
    copy = copied_run(tiny_run, tmp_path)
    manifest_path = PipelinePaths(copy.out_dir).manifest
    text = manifest_path.read_text(encoding="utf-8")
    original = json.loads(text)
    manifest_path.write_text(damage(text, original), encoding="utf-8")
    rerun = run_pipeline(copy)
    assert len(rerun.executed) == n_rerun
    for stage, entry in original["stages"].items():
        assert rerun.manifest["stages"][stage]["outputs"] == entry["outputs"], stage
    assert json.loads(manifest_path.read_text(encoding="utf-8")) == rerun.manifest
