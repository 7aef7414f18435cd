"""Shared fixtures: tiny corpora and a small trained pipeline run."""

from __future__ import annotations

import dataclasses
import shutil

import pytest

from qreform.corpus import Corpus
from qreform.pipeline import PipelineConfig, run_pipeline
from qreform.synthgen import SynthConfig


def build_corpus(rows, min_purchase=2) -> Corpus:
    """rows: (query, product, purchases) triples; None product allowed."""
    corpus = Corpus(min_purchase=min_purchase)
    for query, product, purchases in rows:
        corpus.add_row(query, product, purchases)
    corpus.finalize()
    return corpus


def set_overlap(pp1: set[str], pp2: set[str]) -> float:
    """The set-overlap relevance that divergence scoring replaced:
    (|A∩B| / min(|A|, |B|)) * (|A∩B| / |A∪B|).  It is blind to how
    purchases spread inside the sets, and tests use it to show that trap."""
    inter = len(pp1 & pp2)
    return (inter / min(len(pp1), len(pp2))) * (inter / len(pp1 | pp2))


def tiny_config(out_dir, seed=0) -> PipelineConfig:
    return PipelineConfig(
        out_dir=str(out_dir),
        seed=seed,
        synth=SynthConfig(
            n_intents=12,
            queries_per_intent=10,
            products_per_catalog=12,
            n_audit_pairs=120,
        ),
        n_test_queries=20,
        retriever_epochs=2,
        ance_rounds=2,
        reranker_epochs=1,
        # The tiny run has 68 rich queries, so a top-100 list is the whole
        # pool and recall@100 cannot tell the retrievers apart.
        eval_k=10,
    )


@pytest.fixture(scope="session")
def tiny_run(tmp_path_factory):
    """One small end-to-end pipeline run shared by integration tests."""
    out_dir = tmp_path_factory.mktemp("tiny_run")
    config = tiny_config(out_dir)
    run = run_pipeline(config)
    return config, run


@pytest.fixture
def fresh_tiny_config(tmp_path):
    return tiny_config(tmp_path / "run")


def copied_run(tiny_run, tmp_path) -> PipelineConfig:
    """A copy of the shared tiny run that a test may damage freely."""
    config, run = tiny_run
    out_dir = tmp_path / "copied"
    shutil.copytree(run.out_dir, out_dir)
    return dataclasses.replace(config, out_dir=str(out_dir))


def truncate(path) -> None:
    """Cut a file to half its length."""
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def with_seed(config: PipelineConfig, seed: int) -> PipelineConfig:
    return dataclasses.replace(config, seed=seed)
