"""The benchmark (bench/phases.py) still finds the hooks it times and the
run files it loads.

A refactor that renames a traced function, moves a traced argument, or
renames a file the serving phase reads fails here, in tier 1, rather than
only in the benchmark's smoke run.
"""

import importlib.util
import math
import sys
from pathlib import Path

from qreform import pipeline, training
from qreform.corpus import load_corpus, rich_queries
from qreform.encoders import BiEncoderModel
from tests.conftest import copied_run

PHASES = Path(__file__).resolve().parent.parent / "bench" / "phases.py"


def _load_phases(monkeypatch):
    # phases.py puts src/ and bench/ on sys.path; undo that after the test.
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("bench_phases", PHASES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_plan_counts_training_examples_and_adam_rows(monkeypatch):
    phases = _load_phases(monkeypatch)
    tracer = phases.Tracer()
    phases.trace_qreform(tracer)
    feature_dim, epochs, batch_size = 1 << 8, 2, 2
    examples = [
        training.RetrievalExample("red mask", "crimson mask", 1.0),
        training.RetrievalExample("blue towel", "azure towel", 0.8),
        training.RetrievalExample("green cup", "emerald cup", 0.6),
    ]
    config = training.TrainConfig(
        objective=training.OBJECTIVE_RETRIEVAL, epochs=epochs, batch_size=batch_size
    )
    try:
        model = BiEncoderModel.initialize(feature_dim, 4, seed=0)
        training.train(model, examples, [], config)
    finally:
        tracer.restore()

    summary = tracer.summary()
    steps = epochs * math.ceil(len(examples) / batch_size)
    assert summary["training.train"]["calls"] == 1
    assert summary["training.train"]["value"] == [len(examples) * epochs]
    assert summary["training.build_retrieval_batches"]["calls"] == epochs
    assert summary["training.loss_retrieval"]["calls"] == steps
    assert summary["training.adam_step"]["calls"] == steps
    useful, rows = summary["training.adam_step"]["value"]
    assert rows == steps * feature_dim
    assert 0 < useful < rows
    layers = phases.layer_metrics(tracer)
    assert layers["training.examples_per_s"] > 0.0
    assert 0.0 < layers["training.adam_useful_row_ratio"] < 1.0


def test_serving_loader_reads_the_tail_and_the_threshold(monkeypatch, tiny_run, tmp_path):
    phases = _load_phases(monkeypatch)
    config = copied_run(tiny_run, tmp_path)
    state = phases._load_serving(config, "0")

    paths = pipeline.PipelinePaths(config.out_dir)
    corpus = load_corpus(paths.corpus_queries, paths.corpus_events)
    tail = pipeline.tail_queries(corpus)
    assert tail and not set(tail) & set(rich_queries(corpus, config.rich_threshold))
    assert state["probes"].tail == tail
    assert state["warmup"].tail == tail
    probe, intent = state["probes"].next()
    assert probe not in corpus.queries and intent is not None
    assert state["threshold"] == pipeline.load_threshold(paths)
