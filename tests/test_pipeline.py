"""Pipeline orchestration, inference ops, feature augmentation."""

import ast
import builtins
import collections
import dataclasses
import errno
import gc
import io
import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import qreform
from qreform import encoders, pipeline, training
from qreform.ance import load_hard_negatives
from qreform.corpus import TIER_IMPOVERISHED, TIER_RICH, load_corpus, rich_queries
from qreform.encoders import load_checkpoint, params_checksum
from qreform.evaluation import load_report
from qreform.files import read_tsv
from qreform.knn import load_index
from qreform.mining import load_pairs
from qreform.normalize import normalize
from qreform.pipeline import (
    MODEL_RERANKER_CIRCLE,
    MODEL_RETRIEVER_WEIGHTED,
    AugmentationParams,
    PipelineConfig,
    PipelinePaths,
    StageFailure,
    _stage_specs,
    augment_feature,
    augment_for_tier,
    evaluate_model,
    load_serving_state,
    load_threshold,
    reformulate,
    run_pipeline,
    select_threshold,
    tail_reformulation_rate,
)
from qreform.synthgen import LOG_KIND, SynthConfig, generate
from tests.conftest import copied_run, tiny_config
from tests.one_source_reference import one_source_scores

REPO = Path(__file__).resolve().parent.parent


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


def _select_threshold_by_loop(positive_scores, negative_scores):
    """The one-candidate-at-a-time search that ``select_threshold`` replaced."""
    pos = np.asarray(positive_scores, dtype=np.float64)
    neg = np.asarray(negative_scores, dtype=np.float64)
    observed = sorted(set(pos.tolist()) | set(neg.tolist()))
    best_f1 = -1.0
    best_threshold = 0.0
    for candidate in observed:
        tp = int(np.sum(pos >= candidate))
        fp = int(np.sum(neg >= candidate))
        fn = len(pos) - tp
        denom = 2 * tp + fp + fn
        f1 = 2 * tp / denom if denom else 0.0
        if f1 > best_f1:
            best_f1 = f1
            best_threshold = candidate
    below = [s for s in observed if s < best_threshold]
    if below:
        best_threshold = (best_threshold + below[-1]) / 2.0
    return float(best_threshold)


# A few shared values make ties within and across the classes common.
_scores = st.lists(
    st.one_of(
        st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=30,
)


@settings(max_examples=300, deadline=None)
@given(_scores, _scores)
def test_select_threshold_matches_the_loop(positive_scores, negative_scores):
    assert select_threshold(positive_scores, negative_scores) == _select_threshold_by_loop(
        positive_scores, negative_scores
    )


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
    run = run_pipeline(config, stages=["synth-gen"])
    attrs, rows = read_tsv(PipelinePaths(run.out_dir).log, LOG_KIND)
    assert attrs["seed"] == "9"
    expected = generate(config.synth, 9).log_rows
    assert rows == [[query, product, str(n)] for query, product, n in expected]


def _attributes_read(tree: ast.AST, skip_classes: set[str]) -> set[str]:
    """Names read as ``x.name`` anywhere in ``tree`` outside the bodies of
    the classes named in ``skip_classes``."""
    if isinstance(tree, ast.ClassDef) and tree.name in skip_classes:
        return set()
    names = set()
    if isinstance(tree, ast.Attribute) and isinstance(tree.ctx, ast.Load):
        names.add(tree.attr)
    for child in ast.iter_child_nodes(tree):
        names |= _attributes_read(child, skip_classes)
    return names


def test_every_config_field_is_read_by_the_package():
    # A field nothing reads still enters config_hash, so editing it would
    # rerun every stage while changing no artifact.
    classes = {"PipelineConfig": PipelineConfig, "SynthConfig": SynthConfig}
    package = Path(qreform.__file__).parent
    read = set()
    for module in sorted(package.glob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"))
        read |= _attributes_read(tree, set(classes))
    unread = [
        f"{name}.{f.name}"
        for name, cls in classes.items()
        for f in dataclasses.fields(cls)
        if f.name not in read
    ]
    assert unread == []


@pytest.mark.parametrize("rounds", [0, -1])
def test_config_rejects_fewer_than_one_ance_round(tmp_path, rounds):
    with pytest.raises(ValueError, match="ance_rounds"):
        dataclasses.replace(tiny_config(tmp_path / "run"), ance_rounds=rounds)


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize(
    "name",
    [
        "top_k",
        "n_max",
        "n_test_queries",
        "bi_feature_dim",
        "embed_dim",
        "cross_feature_dim",
        "retriever_epochs",
        "ance_epochs_per_round",
        "reranker_epochs",
        "batch_size",
        "hard_negative_cap",
        "rerank_negative_cap",
        "eval_k",
        "rich_threshold",
    ],
)
def test_config_rejects_counts_below_one(tmp_path, name, value):
    with pytest.raises(ValueError, match=f"{name} must be >= 1, got {value}"):
        dataclasses.replace(tiny_config(tmp_path / "run"), **{name: value})


@pytest.mark.parametrize("value", [0, -1])
def test_config_rejects_hidden_dims_below_one(tmp_path, value):
    with pytest.raises(ValueError, match=rf"hidden_dims\[1\] must be >= 1, got {value}"):
        dataclasses.replace(tiny_config(tmp_path / "run"), hidden_dims=(64, value))


def test_config_save_keeps_the_previous_file_when_a_write_fails(tmp_path, monkeypatch):
    path = tmp_path / "config.json"
    tiny_config(tmp_path / "run").save_json(path)
    previous = path.read_bytes()
    real_open = builtins.open

    def open_disk_full(file, mode="r", *args, **kwargs):
        # A file opened for writing takes half of its first write, then
        # fails as a full disk would.
        fh = real_open(file, mode, *args, **kwargs)
        if "w" in mode:
            real_write = fh.write

            def write(data):
                real_write(data[: len(data) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

            fh.write = write
        return fh

    monkeypatch.setattr(builtins, "open", open_disk_full)
    monkeypatch.setattr(io, "open", open_disk_full)
    with pytest.raises(OSError, match="No space left"):
        tiny_config(tmp_path / "run", seed=3).save_json(path)
    monkeypatch.undo()
    assert path.read_bytes() == previous
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


# --- the tiny end-to-end run ---


def test_pipeline_produces_reports_and_artifacts(tiny_run):
    config, run = tiny_run
    paths = PipelinePaths(run.out_dir)
    assert paths.manifest.exists()
    kept = (
        "retriever_top30_baseline",
        "retriever_weighted",
        "retriever_ance_r2",
        "reranker_pointwise",
        "reranker_circle_ance",
    )
    assert pipeline.model_ids(config.ance_rounds) == list(kept)
    for model_id in kept:
        report = load_report(paths.report(model_id))
        assert report.model_id == model_id
        assert paths.checkpoint(model_id).exists()
    # Nothing reads an earlier ANCE round or a loss trace, so no file holds one.
    assert sorted(p.name for p in paths.reports_dir.iterdir()) == sorted(
        paths.report(model_id).name for model_id in kept
    )
    assert not paths.retriever_ance(1).exists()
    assert not list(run.out_dir.glob("trace_*"))
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


def test_manifest_records_one_blas_thread_per_stage(tiny_run):
    _, run = tiny_run
    assert {entry["blas_threads"] for entry in run.manifest["stages"].values()} == {1}


def test_manifest_records_unpinned_without_the_setter(tmp_path, monkeypatch):
    monkeypatch.setattr(pipeline, "_openblas_thread_calls", lambda: None)
    run = run_pipeline(tiny_config(tmp_path / "run"), stages=["synth-gen"])
    assert run.manifest["stages"]["synth-gen"]["blas_threads"] == "unpinned"


def test_blas_pin_restores_the_callers_thread_count():
    calls = pipeline._openblas_thread_calls()
    assert calls is not None, "numpy's OpenBLAS exports no thread-count setter"
    get, set_ = calls
    previous = get()
    set_(2)
    try:
        with pipeline._one_blas_thread() as threads:
            assert threads == get() == 1
        assert get() == 2
    finally:
        set_(previous)


RUN_AND_PRINT_DIGESTS = """
import json, sys
from qreform.pipeline import run_pipeline
from tests.conftest import tiny_config
run = run_pipeline(tiny_config(sys.argv[1]))
print(json.dumps({name: entry["outputs"] for name, entry in run.manifest["stages"].items()}))
"""


def test_outputs_do_not_depend_on_the_callers_blas_threads(tmp_path):
    runs = []
    for threads in ("1", "2"):
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": threads,
            "PYTHONPATH": os.pathsep.join([str(REPO / "src"), str(REPO)]),
        }
        command = [sys.executable, "-c", RUN_AND_PRINT_DIGESTS, str(tmp_path / threads)]
        runs.append(subprocess.Popen(command, env=env, stdout=subprocess.PIPE, text=True))
    outputs = [run.communicate(timeout=600)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    assert json.loads(outputs[0]) == json.loads(outputs[1])


def test_pipeline_rerun_skips_everything(tiny_run):
    config, _ = tiny_run
    second = run_pipeline(config)
    assert second.executed == []
    assert len(second.skipped) == 9


@pytest.mark.parametrize(
    "deleted, producer, consumer",
    [
        ("groups.tsv", "normalize", "mine"),
        ("retriever_top30_baseline.npz", "train-retriever", "ance"),
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


def _corrupt_and_resume(tiny_run, tmp_path, name: str) -> list[str]:
    """Truncate one artifact of a copy of the tiny run and resume the copy;
    return the stages that reran.  Every output comes back as it was."""
    copy = copied_run(tiny_run, tmp_path)
    paths = PipelinePaths(copy.out_dir)
    original = json.loads(paths.manifest.read_text(encoding="utf-8"))
    damaged = paths.root / name
    text = damaged.read_text(encoding="utf-8")
    damaged.write_text(text[: len(text) // 2], encoding="utf-8")
    rerun = run_pipeline(copy)
    for stage, entry in original["stages"].items():
        assert rerun.manifest["stages"][stage]["outputs"] == entry["outputs"], stage
    return rerun.executed


def test_pipeline_input_change_cascades(tiny_run, tmp_path):
    # Its producer rewrites the corrupt file byte for byte, so no
    # consumer of it reruns.
    assert _corrupt_and_resume(tiny_run, tmp_path, "rerank_threshold.tsv") == [
        "train-reranker"
    ]


def test_corrupt_pair_file_reruns_only_mine(tiny_run, tmp_path):
    assert _corrupt_and_resume(tiny_run, tmp_path, "pairs_train.tsv") == ["mine"]


def test_pipeline_stage_failure_names_stage(tmp_path):
    config = tiny_config(tmp_path / "run")
    config = dataclasses.replace(config, min_purchase=0)
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
    corpus = load_corpus(paths.corpus_queries, paths.corpus_events)
    rich = set(rich_queries(corpus, config.rich_threshold))
    bi_encoder = load_checkpoint(paths.retriever_ance(config.ance_rounds))
    cross_encoder = load_checkpoint(paths.reranker_circle)
    index = load_index(paths.index_file)
    threshold = load_threshold(paths)
    result = reformulate(
        "mask", bi_encoder, index, cross_encoder, top_k=20, threshold=threshold
    )
    assert result.targets
    for target, _ in result.targets:
        assert target in rich


def test_fresh_run_writes_no_normalized_query_file(tiny_run):
    _, run = tiny_run
    assert PipelinePaths(run.out_dir).corpus_queries.exists()
    assert not (run.out_dir / "corpus_queries_normalized.tsv").exists()


def test_reformulate_rejects_empty_query(tiny_run):
    config, run = tiny_run
    paths = PipelinePaths(run.out_dir)
    bi_encoder = load_checkpoint(paths.retriever_ance(config.ance_rounds))
    cross_encoder = load_checkpoint(paths.reranker_circle)
    index = load_index(paths.index_file)
    with pytest.raises(ValueError):
        reformulate("", bi_encoder, index, cross_encoder)


def _serving_models(config, run):
    paths = PipelinePaths(run.out_dir)
    bi_encoder = load_checkpoint(paths.retriever_ance(config.ance_rounds))
    cross_encoder = load_checkpoint(paths.reranker_circle)
    return bi_encoder, load_index(paths.index_file), cross_encoder


@pytest.mark.parametrize(
    "name, value",
    [(name, value) for name in ("top_k", "n_max") for value in (0, -1, -3)]
    + [("threshold", value) for value in (math.nan, math.inf, -math.inf)],
)
def test_reformulate_rejects_counts_below_one(tiny_run, monkeypatch, name, value):
    bi_encoder, index, cross_encoder = _serving_models(*tiny_run)

    def no_work(*args, **kwargs):
        raise AssertionError("reformulate did work before checking its arguments")

    monkeypatch.setattr(encoders, "_ngram_digests", no_work)
    monkeypatch.setattr(bi_encoder, "embed", no_work)
    with pytest.raises(ValueError, match=f"{name} must be (>= 1|finite), got {value}"):
        reformulate("mask", bi_encoder, index, cross_encoder, **{name: value})


def reference_reformulate(query, bi_encoder, index, cross_encoder, top_k, threshold, n_max):
    """The request path before the hash hand-off and pool-position scoring: each
    encoder hashes the query, the probe is a one-row CSR product, the
    candidates are texts scored by the old one-source path, and every
    passing candidate is sorted."""
    columns, counts = bi_encoder.featurizer.row(query)
    features = sparse.csr_matrix(
        (counts, columns, [0, len(columns)]), shape=(1, bi_encoder.feature_dim)
    )
    probe = bi_encoder._unit_rows(features @ bi_encoder.projection, [query])[0][0]
    sims = (probe[None, :] @ index.embeddings.T)[0]
    hits = np.argsort(-sims, kind="stable")[:top_k]  # id-sorted entries settle ties
    candidates = [index.query_ids[i] for i in hits if index.query_ids[i] != query]
    if not candidates:
        return pipeline.ReformulationResult(query, (), threshold)
    scores = pipeline._sigmoid(one_source_scores(cross_encoder, query, candidates))
    passed = [
        (candidate, float(score))
        for candidate, score in zip(candidates, scores)
        if score >= threshold
    ]
    passed.sort(key=lambda pair: (-pair[1], pair[0]))
    return pipeline.ReformulationResult(query, tuple(passed[:n_max]), threshold)


@st.composite
def requests(draw, pool):
    def script(first, last):
        letters = st.characters(min_codepoint=first, max_codepoint=last)
        return st.text(letters, min_size=1, max_size=12)

    probe = draw(
        st.one_of(
            st.text(min_size=1, max_size=24),
            script(0x30A1, 0x30FA),  # katakana
            script(0x0900, 0x097F),  # Devanagari
            st.sampled_from(pool),  # excluded from its own candidates
        )
    )
    return {
        "query": probe,
        "top_k": draw(st.integers(1, len(pool) + 5)),
        "n_max": draw(st.integers(1, 12)),
        "threshold": draw(st.floats(0.0, 1.0)),
    }


def test_reformulate_equals_the_two_hash_reference(tiny_run):
    bi_encoder, index, cross_encoder = _serving_models(*tiny_run)

    @settings(max_examples=150, deadline=None)
    @given(requests(index.query_ids))
    def check(request):
        models = {"bi_encoder": bi_encoder, "index": index, "cross_encoder": cross_encoder}
        assert reformulate(**request, **models) == reference_reformulate(**request, **models)

    check()


def test_reformulate_hashes_the_query_once(tiny_run, monkeypatch):
    bi_encoder, index, cross_encoder = _serving_models(*tiny_run)
    # The first request interns every candidate the table will ever hold.
    reformulate("warm up", bi_encoder, index, cross_encoder, top_k=len(index), threshold=0.0)
    hashed = []
    digests = encoders._ngram_digests

    def counted(text):
        hashed.append(text)
        return digests(text)

    monkeypatch.setattr(encoders, "_ngram_digests", counted)
    result = reformulate(
        "maskz sheet", bi_encoder, index, cross_encoder, top_k=len(index), threshold=0.0
    )
    assert result.targets
    assert hashed == ["maskz sheet"]


def test_serving_memory_is_bounded(tiny_run):
    # Every request retrieves the whole index, so the first one interns
    # every candidate the cross-encoder will ever see.
    bi_encoder, index, cross_encoder = _serving_models(*tiny_run)
    probes = [f"{index.query_ids[i % len(index)]} {i}x" for i in range(1000)]
    assert not set(probes) & set(index.query_ids)

    def serve(probe):
        reformulate(probe, bi_encoder, index, cross_encoder, top_k=len(index), threshold=0.0)
        return len(bi_encoder.featurizer), len(cross_encoder.featurizer)

    rows = serve(probes[0])
    cached = len(cross_encoder._term_rows)
    pool = cross_encoder._pool
    assert pool.texts is index.query_ids and len(pool) == len(index)
    for probe in probes[1:]:
        assert serve(probe) == rows
        assert np.count_nonzero(cross_encoder._term_filled) <= rows[1]
    assert len(cross_encoder._term_rows) == cached
    assert cross_encoder._pool is pool  # built once, on the first request


def test_a_run_interns_each_text_once_per_feature_dim(tmp_path, monkeypatch):
    # ``_bucket_counts`` hashes every text, whether ``featurize`` interns it
    # in a table or a one-source scoring reads a source the table lacks.
    hashed = collections.Counter()
    bucket_counts = encoders._bucket_counts

    def counted(text, feature_dim, digests=None):
        hashed[text, feature_dim] += 1
        return bucket_counts(text, feature_dim, digests)

    monkeypatch.setattr(encoders, "_bucket_counts", counted)
    config = tiny_config(tmp_path / "run")
    run_pipeline(config)
    assert {dim for _, dim in hashed} == {config.bi_feature_dim, config.cross_feature_dim}
    assert max(hashed.values()) == 1


def test_no_featurizer_table_outlives_its_call(tiny_run, tmp_path, monkeypatch):
    made = []
    init = encoders.Featurizer.__init__

    def recorded(self, feature_dim):
        made.append(weakref.ref(self))
        init(self, feature_dim)

    monkeypatch.setattr(encoders.Featurizer, "__init__", recorded)
    config = copied_run(tiny_run, tmp_path)
    # The index and evaluate stages load every model: one table per
    # feature_dim serves them all.
    run_pipeline(config, force=True, stages=("index", "evaluate"))
    assert len(made) == 2
    evaluate_model(config, MODEL_RERANKER_CIRCLE)
    assert len(made) == 4
    gc.collect()
    assert [ref() for ref in made] == [None] * 4


def test_serving_models_start_with_empty_tables_of_their_own(tiny_run):
    config, _ = tiny_run
    first, second = load_serving_state(config), load_serving_state(config)
    tables = [
        state.bi_encoder.featurizer for state in (first, second)
    ] + [state.cross_encoder.featurizer for state in (first, second)]
    assert [len(table) for table in tables] == [0] * 4
    assert len({id(table) for table in tables}) == 4


def test_reformulate_breaks_score_ties_by_id(tiny_run):
    bi_encoder, index, trained = _serving_models(*tiny_run)
    # A zero last layer gives every pair the score sigmoid(0) = 0.5.
    cross_encoder = encoders.CrossEncoderModel(
        [w.copy() for w in trained.weights[:-1]] + [np.zeros_like(trained.weights[-1])],
        [b.copy() for b in trained.biases[:-1]] + [np.zeros_like(trained.biases[-1])],
        trained.feature_dim,
    )
    ids = index.query_ids
    query = ids[1]  # a pool query, among the smallest ids
    retrieved = [q for q, _ in index.knn(bi_encoder.embed(query), len(index)) if q != query]
    want = [ids[0], *ids[2:7]]
    assert retrieved[:6] != want  # retrieval order would give other targets
    for top_k in (len(index), len(index) + 3):
        result = reformulate(
            query, bi_encoder, index, cross_encoder, top_k=top_k, threshold=0.5, n_max=6
        )
        assert result.targets == tuple((q, 0.5) for q in want)
    nearest = retrieved[:20]  # the query itself, similarity 1, fills the 21st place
    result = reformulate(query, bi_encoder, index, cross_encoder, top_k=21, threshold=0.5, n_max=6)
    assert [q for q, _ in result.targets] == sorted(nearest)[:6]


def test_a_score_that_rounds_onto_the_threshold_in_float32_is_judged_in_float64(tiny_run):
    bi_encoder, index, trained = _serving_models(*tiny_run)
    # A zero last layer and a last bias b score every pair b exactly.
    bias = np.float32(0.25)
    cross_encoder = encoders.CrossEncoderModel(
        [w.copy() for w in trained.weights[:-1]] + [np.zeros_like(trained.weights[-1])],
        [b.copy() for b in trained.biases[:-1]] + [np.full_like(trained.biases[-1], bias)],
        trained.feature_dim,
    )
    score = 1.0 / (1.0 + math.exp(-float(bias)))
    above = float(np.nextafter(score, 1.0))
    # In float32 the score reaches the threshold just above it.
    assert (1.0 / (1.0 + np.exp(-np.array([bias]))) >= above).all()
    query = index.query_ids[0]
    kept = reformulate(query, bi_encoder, index, cross_encoder, top_k=5, threshold=score)
    assert [s for _, s in kept.targets] == [score] * 4
    missed = reformulate(query, bi_encoder, index, cross_encoder, top_k=5, threshold=above)
    assert missed.targets == ()


def test_a_run_keeps_its_training_and_serving_state_in_float32(tmp_path, monkeypatch):
    seen = collections.defaultdict(set)
    step = training.AdamOptimizer.step
    forward = encoders.BiEncoderModel.embed_many_with_backward

    def spied_step(self, params, grads):
        for name, kind in (("parameter", params), ("gradient", grads),
                           ("first moment", self.first), ("second moment", self.second)):
            seen[name].update(array.dtype for array in kind.values())
        step(self, params, grads)

    def spied_forward(self, texts):
        units, backward = forward(self, texts)
        seen["embedding"].add(units.dtype)
        return units, backward

    monkeypatch.setattr(training.AdamOptimizer, "step", spied_step)
    monkeypatch.setattr(encoders.BiEncoderModel, "embed_many_with_backward", spied_forward)
    config = tiny_config(tmp_path / "run")
    run_pipeline(config)
    paths = PipelinePaths(config.out_dir)
    for model_id in pipeline.model_ids(config.ance_rounds):
        model = load_checkpoint(paths.checkpoint(model_id))
        seen["checkpoint"].update(array.dtype for array in model.parameters().values())
    state = load_serving_state(config)
    seen["index"].add(state.index.embeddings.dtype)
    seen["probe"].add(state.bi_encoder.embed("a query no run has").dtype)
    assert set(seen) == {
        "parameter", "gradient", "first moment", "second moment", "embedding",
        "checkpoint", "index", "probe",
    }
    assert {name: kinds for name, kinds in seen.items() if kinds != {np.dtype(np.float32)}} == {}


def test_tail_reformulation_rate_computable(tiny_run):
    config, _ = tiny_run
    rate = tail_reformulation_rate(config)
    assert 0.0 <= rate <= 1.0


@pytest.fixture(scope="module")
def retrained(tiny_run, tmp_path_factory):
    """Rerun the three training stages, one at a time, on a copy of the
    tiny run.  Return the copy's config and, by stage, what two spies saw:
    for each ``train`` call, the checksum of the model it left and the loss
    rows it returned; for each mining call, the checksum of the model it
    mined with and the records it returned (before any cap)."""
    config = copied_run(tiny_run, tmp_path_factory.mktemp("retrained"))
    real_mine = pipeline.ance_mod.mine_hard_negatives
    real_train = pipeline.train_mod.train
    trained: dict[str, list] = {}
    mined: dict[str, list] = {}

    def spy_mine(model, *args, **kwargs):
        checksum = params_checksum(model)
        records = real_mine(model, *args, **kwargs)
        mined[stage].append((checksum, records))
        return records

    def spy_train(model, *args, **kwargs):
        result = real_train(model, *args, **kwargs)
        trained[stage].append((params_checksum(model), result.trace))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline.ance_mod, "mine_hard_negatives", spy_mine)
        patch.setattr(pipeline.train_mod, "train", spy_train)
        for stage in ("train-retriever", "ance", "train-reranker"):
            trained[stage], mined[stage] = [], []
            assert run_pipeline(config, force=True, stages=[stage]).executed == [stage]
    return config, trained, mined


@pytest.fixture(scope="module")
def ance_mining(retrained):
    """The copy's config and the ance stage's mining calls."""
    config, _, mined = retrained
    return config, mined["ance"]


def test_training_stages_record_each_models_losses(tiny_run, retrained):
    config, trained, _ = retrained
    rounds = range(1, config.ance_rounds + 1)
    models = {
        "train-retriever": (
            [pipeline.MODEL_RETRIEVER_BASELINE, MODEL_RETRIEVER_WEIGHTED],
            config.retriever_epochs,
        ),
        "ance": (
            [pipeline.MODEL_RETRIEVER_ANCE.format(round=r) for r in rounds],
            config.ance_epochs_per_round,
        ),
        "train-reranker": (list(pipeline.RERANKER_IDS), config.reranker_epochs),
    }
    manifest = json.loads(PipelinePaths(config.out_dir).manifest.read_text(encoding="utf-8"))
    for stage, (ids, epochs) in models.items():
        losses = manifest["stages"][stage]["losses"]
        assert len(trained[stage]) == len(ids)
        assert losses == {model_id: rows for model_id, (_, rows) in zip(ids, trained[stage])}
        for rows in losses.values():
            assert [epoch for epoch, _, _ in rows] == list(range(1, epochs + 1))
        # The in-memory manifest of the first run reads back equal.
        assert tiny_run[1].manifest["stages"][stage]["losses"] == losses
    assert {name for name, entry in manifest["stages"].items() if "losses" in entry} == set(models)
    # A resume that skips the training stages keeps their entries as recorded.
    resumed = run_pipeline(config)
    assert resumed.executed == []
    assert resumed.manifest == manifest


def test_each_ance_round_mines_with_the_previous_round_model(retrained):
    config, trained, mined = retrained
    paths = PipelinePaths(config.out_dir)
    assert len(mined["ance"]) == len(trained["ance"]) == config.ance_rounds
    previous = params_checksum(load_checkpoint(paths.checkpoint(MODEL_RETRIEVER_WEIGHTED)))
    rounds = zip(mined["ance"], trained["ance"])
    for round_index, ((checksum, records), (current, _)) in enumerate(rounds, start=1):
        assert checksum == previous
        assert records
        for record in records:
            assert record.round_index == round_index
            assert record.source_checkpoint == previous
        assert current != previous
        previous = current
    assert previous == params_checksum(load_checkpoint(paths.retriever_ance(config.ance_rounds)))


def test_negatives_file_holds_the_final_round_capped(ance_mining):
    # The file holds exactly what the re-ranker trains on: each anchor's
    # first rerank_negative_cap negatives of the final round, in rank order.
    config, calls = ance_mining
    cap = config.rerank_negative_cap
    _, final = calls[-1]
    assert any(len(record.negatives) > cap for record in final)
    saved = load_hard_negatives(PipelinePaths(config.out_dir).negatives(config.ance_rounds))
    assert saved == [
        dataclasses.replace(record, negatives=record.negatives[:cap])
        for record in final
        if record.negatives
    ]


def test_no_hard_negative_shares_its_anchor_normalized_form(tiny_run, ance_mining):
    config, run = tiny_run
    paths = PipelinePaths(run.out_dir)
    norm_config = pipeline._load_norm_config(paths)
    corpus = load_corpus(paths.corpus_queries, paths.corpus_events)
    form = {qid: normalize(qid, norm_config) for qid in corpus.queries}
    files = sorted(run.out_dir.glob("hard_negatives_round*.tsv"))
    assert files == [paths.negatives(config.ance_rounds)]
    checked = 0
    for _, records in ance_mining[1]:
        for record in records:
            for negative in record.negatives:
                assert form[negative] != form[record.anchor], (record.anchor, negative)
                checked += 1
    assert checked


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


def test_each_stage_reads_and_writes_only_its_declared_files(tmp_path, monkeypatch):
    config = tiny_config(tmp_path / "run")
    paths = PipelinePaths(config.out_dir)
    paths.root.mkdir(parents=True)
    root = paths.root.resolve()
    opened: list[tuple[object, str]] = []
    renamed: dict[Path, Path] = {}
    real_open, real_load, real_replace = builtins.open, np.load, os.replace

    def spy_open(file, mode="r", *args, **kwargs):
        opened.append((file, mode))
        return real_open(file, mode, *args, **kwargs)

    def spy_load(file, *args, **kwargs):
        opened.append((file, "rb"))
        return real_load(file, *args, **kwargs)

    def spy_replace(src, dst, *args, **kwargs):
        # A temp file renamed onto a path counts as a write of that path.
        renamed[Path(src).resolve()] = Path(dst).resolve()
        return real_replace(src, dst, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", spy_open)
    monkeypatch.setattr(os, "replace", spy_replace)
    monkeypatch.setattr(io, "open", spy_open)
    monkeypatch.setattr(np, "load", spy_load)

    undeclared, unused = {}, {}
    featurizers = {}  # shared by the stages, as run_pipeline shares it
    for name, inputs, outputs, runner in _stage_specs(config, paths):
        opened.clear()
        renamed.clear()
        runner(config, paths, featurizers)
        reads, writes = set(), set()
        for file, mode in opened:
            if not isinstance(file, (str, os.PathLike)):
                continue
            path = Path(file).resolve()
            if path.is_relative_to(root):
                if set(mode) & set("wax+"):
                    writes.add(renamed.get(path, path))
                else:
                    reads.add(path)
        assert writes, f"{name}: the spy saw no writes"
        declared_in = {Path(p).resolve() for p in inputs}
        declared_out = {Path(p).resolve() for p in outputs}
        stray = (reads - declared_in - declared_out) | (writes - declared_out)
        if stray:
            undeclared[name] = sorted(str(p.relative_to(root)) for p in stray)
        # The converse: a declared input the stage does not read reruns it
        # for nothing, and a declared output it does not write lets a stale
        # file pass as its output.
        idle = (declared_in - reads) | (declared_out - writes)
        if idle:
            unused[name] = sorted(str(p.relative_to(root)) for p in idle)
    assert undeclared == {}
    assert unused == {}
