"""End-to-end orchestration: staged pipeline, inference, augmentation.

Stages (synth-gen, ingest, normalize, mine, train-retriever, ance,
train-reranker, index, evaluate) are file-to-file transformations tracked
in a run manifest.  A stage is skipped when its outputs exist and the
recorded input/output checksums still match, so deleting one intermediate
file reruns only that file's producer and whatever actually changes
downstream.  Every model the trend tables compare is trained and
evaluated here: the unweighted top-30% baseline retriever, the
importance-weighted retriever, its hard-negative fine-tuning rounds, and
the two re-rankers.  Stage runners call the library modules directly, and
each model's checkpoint, trace and report are named by its model id.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from . import ance as ance_mod
from . import corpus as corpus_mod
from . import evaluation as eval_mod
from . import knn as knn_mod
from . import mining as mining_mod
from . import normalize as norm_mod
from . import synthgen as synth_mod
from . import training as train_mod
from .encoders import (
    BiEncoderModel,
    CrossEncoderModel,
    load_checkpoint,
    params_checksum,
    save_checkpoint,
)
from .files import read_tsv, sha256_bytes, sha256_file, write_tsv

MODEL_RETRIEVER_BASELINE = "retriever_top30_baseline"
MODEL_RETRIEVER_WEIGHTED = "retriever_weighted"
MODEL_RETRIEVER_ANCE = "retriever_ance_r{round}"
MODEL_RERANKER_POINTWISE = "reranker_pointwise"
MODEL_RERANKER_CIRCLE = "reranker_circle_ance"
RERANKER_IDS = (MODEL_RERANKER_POINTWISE, MODEL_RERANKER_CIRCLE)


def model_ids(rounds: int) -> list[str]:
    """Every model a run trains and reports on, retrievers first."""
    return [
        MODEL_RETRIEVER_BASELINE,
        MODEL_RETRIEVER_WEIGHTED,
        *(MODEL_RETRIEVER_ANCE.format(round=r) for r in range(1, rounds + 1)),
        *RERANKER_IDS,
    ]


STAGE_ORDER = (
    "synth-gen",
    "ingest",
    "normalize",
    "mine",
    "train-retriever",
    "ance",
    "train-reranker",
    "index",
    "evaluate",
)


class StageFailure(RuntimeError):
    """Raised when a pipeline stage fails; names the stage and cause."""

    def __init__(self, stage: str, cause: BaseException) -> None:
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass(frozen=True)
class AugmentationParams:
    """Hyper-parameters of the feature blend f̂ = α·f + (1−α)·β·mean(f_targets)."""

    alpha: float = 0.8
    beta: float = 1.0
    n_max: int = 10

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.beta < 0.0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")


def augment_feature(
    f_source: float, f_targets: Sequence[float], params: AugmentationParams
) -> float:
    """Blend a query-product feature with its reformulations' mean feature."""
    if params.alpha == 1.0:
        return float(f_source)
    if not f_targets:
        raise ValueError("augmentation with alpha < 1 needs at least one target")
    mean = float(np.mean(f_targets))
    return params.alpha * f_source + (1.0 - params.alpha) * params.beta * mean


def augment_for_tier(
    tier: str,
    f_source: float,
    f_targets: Sequence[float],
    params: AugmentationParams,
    tail_only: bool = True,
) -> float:
    """Tier gate: by default only behavior-impoverished queries are blended."""
    if tail_only and tier == corpus_mod.TIER_RICH:
        return float(f_source)
    return augment_feature(f_source, f_targets, params)


@dataclass(frozen=True)
class ReformulationResult:
    source: str
    targets: tuple[tuple[str, float], ...]
    threshold: float


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def reformulate(
    query: str,
    bi_encoder,
    index,
    cross_encoder,
    top_k: int = 100,
    threshold: float = 0.5,
    n_max: int = 10,
) -> ReformulationResult:
    """Retrieve candidates from the rich pool, re-rank, apply the threshold.

    The query itself is excluded; targets are ranked by squashed
    cross-encoder score (ties by id) and truncated to n_max.  An empty
    result is valid: it means no reformulation is offered.
    """
    if not query:
        raise ValueError("cannot reformulate an empty query")
    probe = bi_encoder.embed(query)
    hits = index.knn(probe, top_k)
    candidates = [qid for qid, _ in hits if qid != query]
    if not candidates:
        return ReformulationResult(query, (), threshold)
    scores = _sigmoid(cross_encoder.score_many([(query, c) for c in candidates]))
    ranked = sorted(
        zip(candidates, scores), key=lambda pair: (-pair[1], pair[0])
    )
    kept = tuple(
        (candidate, float(score)) for candidate, score in ranked if score >= threshold
    )[:n_max]
    return ReformulationResult(query, kept, threshold)


def select_threshold(
    positive_scores: Sequence[float], negative_scores: Sequence[float]
) -> float:
    """Score cutoff maximizing F1 for separating the two samples.

    Candidates are the observed scores; ties resolve to the lowest
    threshold achieving the best F1, so the choice is deterministic.
    """
    if not positive_scores or not negative_scores:
        raise ValueError("threshold selection needs scores from both classes")
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
    # Cutting exactly at an observed score rejects anything even a hair
    # weaker than the weakest accepted example; place the cut midway
    # between the boundary score and the next one below, as a decision
    # stump would.
    below = [s for s in observed if s < best_threshold]
    if below:
        best_threshold = (best_threshold + below[-1]) / 2.0
    return float(best_threshold)


@dataclass
class PipelineConfig:
    """Everything a full run needs; serializes to JSON for the CLI."""

    out_dir: str = "run"
    seed: int = 0
    synth: synth_mod.SynthConfig = field(default_factory=synth_mod.SynthConfig)
    min_purchase: int = 2
    rich_threshold: int = 20
    mining_floor: float = 0.01
    train_floor: float = 0.25
    n_test_queries: int = 100
    bi_feature_dim: int = 1 << 14
    embed_dim: int = 64
    cross_feature_dim: int = 1 << 13
    hidden_dims: tuple[int, ...] = (64, 16)
    retriever_epochs: int = 1
    ance_epochs_per_round: int = 1
    reranker_epochs: int = 2
    batch_size: int = 256
    retriever_lr: float = 1e-3
    reranker_lr: float = 3e-3
    temperature: float = 0.05
    ance_rounds: int = 3
    top_k: int = 100
    hard_negative_cap: int = 8
    rerank_negative_cap: int = 32
    eval_k: int = 100
    n_max: int = 10
    alpha: float = 0.8
    beta: float = 1.0

    def __post_init__(self) -> None:
        # The re-ranker trains on the final round's negatives and serving
        # uses the final round's retriever, so a run needs one round.
        if self.ance_rounds < 1:
            raise ValueError(f"ance_rounds must be >= 1, got {self.ance_rounds}")
        self.synth = replace(self.synth, seed=self.seed)

    def to_dict(self) -> dict:
        data = dataclasses.asdict(self)
        data["hidden_dims"] = list(self.hidden_dims)
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "PipelineConfig":
        data = dict(data)
        if "synth" in data:
            data["synth"] = synth_mod.SynthConfig(**data["synth"])
        if "hidden_dims" in data:
            data["hidden_dims"] = tuple(data["hidden_dims"])
        return cls(**data)

    def save_json(self, path) -> None:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    @classmethod
    def load_json(cls, path) -> "PipelineConfig":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))

    def config_hash(self) -> str:
        """Hash of every setting that shapes the artifacts.

        ``out_dir`` is left out: it says where a run lives, not what it
        holds, so a copied or moved run resumes instead of rerunning.
        """
        data = self.to_dict()
        del data["out_dir"]
        return sha256_bytes(json.dumps(data, sort_keys=True).encode("utf-8"))


class PipelinePaths:
    """Where a run keeps its files: fixed files are attributes, and each
    model's checkpoint, trace and report are named by its model id."""

    def __init__(self, root) -> None:
        self.root = root = Path(root)
        self.manifest = root / "manifest.json"
        self.log = root / "behavior_log.tsv"
        self.intents = root / "intents.tsv"
        self.relations = root / "intent_relations.tsv"
        self.audit = root / "audit_labels.tsv"
        self.stopwords = root / "stopwords.tsv"
        self.script_map = root / "script_map.tsv"
        self.entities = root / "entities.tsv"
        self.stemmer = root / "stemmer_rules.tsv"
        self.corpus_queries = root / "corpus_queries.tsv"
        self.corpus_events = root / "corpus_events.tsv"
        self.norm_queries = root / "corpus_queries_normalized.tsv"
        self.groups = root / "groups.tsv"
        self.pairs_proposed = root / "pairs_proposed.tsv"
        self.pairs_baseline = root / "pairs_baseline.tsv"
        self.pairs_ungrouped = root / "pairs_ungrouped.tsv"
        self.pairs_exclusion = root / "pairs_exclusion.tsv"
        self.test_queries = root / "test_queries.tsv"
        self.pairs_train = root / "pairs_train.tsv"
        self.pairs_val = root / "pairs_val.tsv"
        self.pairs_test = root / "pairs_test.tsv"
        self.pairs_baseline_train = root / "pairs_baseline_train.tsv"
        self.pairs_baseline_val = root / "pairs_baseline_val.tsv"
        self.reranker_circle = self.checkpoint(MODEL_RERANKER_CIRCLE)
        self.threshold = root / "rerank_threshold.tsv"
        self.index_file = root / "index.npz"
        self.reports_dir = root / "reports"

    def checkpoint(self, model_id: str) -> Path:
        return self.root / f"{model_id}.npz"

    def trace(self, model_id: str) -> Path:
        return self.root / f"trace_{model_id}.tsv"

    def report(self, model_id: str) -> Path:
        return self.reports_dir / f"report_{model_id}.tsv"

    def negatives(self, round_index: int) -> Path:
        return self.root / f"hard_negatives_round{round_index}.tsv"

    def retriever_ance(self, round_index: int) -> Path:
        return self.checkpoint(MODEL_RETRIEVER_ANCE.format(round=round_index))


TESTQ_KIND = "test-queries"
THRESHOLD_KIND = "rerank-threshold"


def _stage_synth(config: PipelineConfig, paths: PipelinePaths) -> None:
    result = synth_mod.generate(config.synth)
    synth_mod.write_all(result, paths.root)


def _stage_ingest(config: PipelineConfig, paths: PipelinePaths) -> None:
    corpus = corpus_mod.ingest_log(paths.log, config.min_purchase)
    corpus_mod.split_rich_impoverished(corpus, config.rich_threshold)
    corpus_mod.save_corpus(corpus, paths.corpus_queries, paths.corpus_events)


def _load_norm_config(paths: PipelinePaths) -> norm_mod.NormalizationConfig:
    return norm_mod.load_config(
        stopwords_path=paths.stopwords,
        script_map_path=paths.script_map,
        entities_path=paths.entities,
        stemmer_path=paths.stemmer,
    )


def _stage_normalize(config: PipelineConfig, paths: PipelinePaths) -> None:
    corpus = corpus_mod.load_corpus(paths.corpus_queries, paths.corpus_events)
    norm_config = _load_norm_config(paths)
    groups = norm_mod.group_queries(corpus, norm_config)
    norm_mod.save_groups(paths.groups, groups)
    corpus_mod.save_corpus(corpus, paths.norm_queries, paths.corpus_events)


def _group_copurchase(
    groups: Sequence[norm_mod.QueryGroup], min_purchase: int
) -> list[corpus_mod.CoPurchaseRecord]:
    """Co-purchase records over group keys, from the products each group
    bought at least ``min_purchase`` times; groups with none are left out."""
    product_sets = {
        g.normalized_text: frozenset(g.surviving_counts(min_purchase)) for g in groups
    }
    return corpus_mod.copurchase_from_product_sets(
        {key: products for key, products in product_sets.items() if products}
    )


def _stage_mine(config: PipelineConfig, paths: PipelinePaths) -> None:
    corpus = corpus_mod.load_corpus(paths.norm_queries, paths.corpus_events)
    groups = norm_mod.load_groups(paths.groups)
    copurchase = _group_copurchase(groups, config.min_purchase)
    proposed = mining_mod.mine_pairs(
        groups,
        copurchase,
        floor=config.mining_floor,
        mode=mining_mod.MODE_PROPOSED,
        min_purchase=config.min_purchase,
    )
    baseline = mining_mod.mine_pairs(
        groups,
        copurchase,
        floor=config.mining_floor,
        mode=mining_mod.MODE_BASELINE_TOP30,
        min_purchase=config.min_purchase,
    )
    # The exclusion list protects pairs from negative sampling, which
    # needs only evidence of relatedness, not a stable distribution
    # estimate: it keeps every raw co-purchase link (min_purchase 1) and
    # closes the graph one hop so kin with no directly sampled overlap
    # are shielded too.
    raw_copurchase = _group_copurchase(groups, 1)
    exclusion = sorted(
        mining_mod.mine_pairs(
            groups,
            raw_copurchase,
            floor=0.0,
            mode=mining_mod.MODE_PROPOSED,
            min_purchase=1,
        )
        + mining_mod.kin_pairs(groups, raw_copurchase, min_purchase=1),
        key=lambda p: (p.source, p.target),
    )
    singles = norm_mod.singleton_groups(corpus)
    ungrouped = mining_mod.mine_pairs(
        singles,
        _group_copurchase(singles, config.min_purchase),
        floor=config.mining_floor,
        mode=mining_mod.MODE_PROPOSED,
        min_purchase=config.min_purchase,
    )
    mining_mod.save_pairs(paths.pairs_proposed, proposed, grouped=1)
    mining_mod.save_pairs(paths.pairs_baseline, baseline, grouped=1)
    mining_mod.save_pairs(paths.pairs_exclusion, exclusion, grouped=1)
    mining_mod.save_pairs(paths.pairs_ungrouped, ungrouped, grouped=0)

    split = corpus_mod.make_split(proposed, config.n_test_queries, config.seed)
    write_tsv(
        paths.test_queries,
        TESTQ_KIND,
        ((q,) for q in sorted(split.test_query_ids)),
        seed=config.seed,
    )
    mining_mod.save_pairs(paths.pairs_train, split.train, shard="train")
    mining_mod.save_pairs(paths.pairs_val, split.validation, shard="validation")
    mining_mod.save_pairs(paths.pairs_test, split.test, shard="test")

    # The baseline mode trains against the same held-out queries.
    base_rest = [
        p
        for p in baseline
        if p.source not in split.test_query_ids
        and p.target not in split.test_query_ids
    ]
    base_train, base_val = corpus_mod.split_validation(
        base_rest, random.Random(config.seed)
    )
    mining_mod.save_pairs(paths.pairs_baseline_train, base_train, shard="train")
    mining_mod.save_pairs(paths.pairs_baseline_val, base_val, shard="validation")


def _retrieval_examples(pairs) -> list[train_mod.RetrievalExample]:
    examples = []
    for pair in pairs:
        examples.append(
            train_mod.RetrievalExample(pair.source, pair.target, pair.importance)
        )
        examples.append(
            train_mod.RetrievalExample(pair.target, pair.source, pair.importance)
        )
    return examples


def _exclusion_set(paths: PipelinePaths) -> frozenset[tuple[str, str]]:
    pairs = mining_mod.load_pairs(paths.pairs_exclusion)
    return frozenset(train_mod.canonical_pair(p.source, p.target) for p in pairs)


def _trained_pairs(path, floor: float):
    """Load pairs whose importance clears the training floor.

    Mined pairs below the floor stay in the pair files (they still count
    as co-purchase knowledge: evaluation truth, hard-negative exclusion,
    reformulation candidates), but they are kept out of training batches.
    An adaptive optimizer normalizes gradient magnitudes per parameter,
    so a near-zero contrastive weight does not yield near-zero learning;
    dropping the pair is the only faithful reading of its weight.
    """
    return [p for p in mining_mod.load_pairs(path) if p.importance >= floor]


def _stage_train_retriever(config: PipelineConfig, paths: PipelinePaths) -> None:
    excluded = _exclusion_set(paths)
    train_config = train_mod.TrainConfig(
        objective=train_mod.OBJECTIVE_RETRIEVAL,
        epochs=config.retriever_epochs,
        batch_size=config.batch_size,
        learning_rate=config.retriever_lr,
        temperature=config.temperature,
        seed=config.seed,
    )
    runs = (
        (MODEL_RETRIEVER_BASELINE, paths.pairs_baseline_train, paths.pairs_baseline_val),
        (MODEL_RETRIEVER_WEIGHTED, paths.pairs_train, paths.pairs_val),
    )
    for model_id, train_path, val_path in runs:
        model = BiEncoderModel.initialize(
            config.bi_feature_dim, config.embed_dim, seed=config.seed
        )
        result = train_mod.train(
            model,
            _retrieval_examples(_trained_pairs(train_path, config.train_floor)),
            _retrieval_examples(_trained_pairs(val_path, config.train_floor)),
            train_config,
            excluded_pairs=excluded,
        )
        save_checkpoint(model, paths.checkpoint(model_id))
        train_mod.save_trace(paths.trace(model_id), result, model=model_id)


def _rich_pool(corpus: corpus_mod.Corpus) -> dict[str, str]:
    return {
        qid: record.raw_text
        for qid, record in corpus.queries.items()
        if record.traffic_tier == corpus_mod.TIER_RICH
    }


def _normalized_texts(corpus: corpus_mod.Corpus) -> dict[str, str]:
    return {
        qid: record.normalized_text or record.raw_text
        for qid, record in corpus.queries.items()
    }


def _stage_ance(config: PipelineConfig, paths: PipelinePaths) -> None:
    """Hard-negative rounds on the weighted retriever.

    Round r mines with the round r−1 model (round 1 with the weighted
    retriever), then fine-tunes it with the contrastive objective, whose
    in-batch pool each anchor's mined negatives augment, under seed
    ``config.seed + r``.  Each round saves its negatives, checkpoint and
    trace before the next begins.
    """
    corpus = corpus_mod.load_corpus(paths.norm_queries, paths.corpus_events)
    model = load_checkpoint(paths.checkpoint(MODEL_RETRIEVER_WEIGHTED))
    excluded = _exclusion_set(paths)
    pool = _rich_pool(corpus)
    normalized = _normalized_texts(corpus)
    train_examples = _retrieval_examples(
        _trained_pairs(paths.pairs_train, config.train_floor)
    )
    val_examples = _retrieval_examples(
        _trained_pairs(paths.pairs_val, config.train_floor)
    )
    anchors = {example.anchor for example in train_examples}
    for round_index in range(1, config.ance_rounds + 1):
        records = ance_mod.mine_hard_negatives(
            model, anchors, pool, excluded, config.top_k, normalized, round_index
        )
        round_config = train_mod.TrainConfig(
            objective=train_mod.OBJECTIVE_RETRIEVAL,
            epochs=config.ance_epochs_per_round,
            batch_size=config.batch_size,
            learning_rate=config.retriever_lr,
            temperature=config.temperature,
            hard_negative_cap=config.hard_negative_cap,
            seed=config.seed + round_index,
        )
        result = train_mod.train(
            model,
            train_examples,
            val_examples,
            round_config,
            excluded_pairs=excluded,
            hard_negatives=ance_mod.negatives_by_anchor(records),
        )
        model_id = MODEL_RETRIEVER_ANCE.format(round=round_index)
        ance_mod.save_hard_negatives(paths.negatives(round_index), records)
        save_checkpoint(model, paths.checkpoint(model_id))
        train_mod.save_trace(paths.trace(model_id), result, model=model_id)


def _directed_examples(pairs) -> list[tuple[str, str, float]]:
    examples = []
    for pair in pairs:
        examples.append((pair.source, pair.target, pair.rerank_target_fwd))
        examples.append((pair.target, pair.source, pair.rerank_target_rev))
    return examples


def _rerank_positive_sets(pairs) -> dict[str, tuple[tuple[str, float], ...]]:
    grouped: dict[str, list[tuple[str, float]]] = {}
    for source, target, value in _directed_examples(pairs):
        grouped.setdefault(source, []).append((target, value))
    return {
        anchor: tuple(sorted(targets)) for anchor, targets in grouped.items()
    }


def _stage_train_reranker(config: PipelineConfig, paths: PipelinePaths) -> None:
    train_pairs = _trained_pairs(paths.pairs_train, config.train_floor)
    val_pairs = _trained_pairs(paths.pairs_val, config.train_floor)

    pointwise = CrossEncoderModel.initialize(
        config.cross_feature_dim, config.hidden_dims, seed=config.seed
    )
    pointwise_config = train_mod.TrainConfig(
        objective=train_mod.OBJECTIVE_POINTWISE,
        epochs=config.reranker_epochs,
        batch_size=config.batch_size,
        learning_rate=config.reranker_lr,
        seed=config.seed,
    )
    result = train_mod.train(
        pointwise,
        _directed_examples(train_pairs),
        _directed_examples(val_pairs),
        pointwise_config,
    )
    save_checkpoint(pointwise, paths.checkpoint(MODEL_RERANKER_POINTWISE))
    train_mod.save_trace(
        paths.trace(MODEL_RERANKER_POINTWISE), result, model=MODEL_RERANKER_POINTWISE
    )

    # Learn-from-teacher: fine-tune a copy of the pointwise model with
    # circle loss on the final ANCE round's hard-negative sets.
    circle = load_checkpoint(paths.checkpoint(MODEL_RERANKER_POINTWISE))
    records = ance_mod.load_hard_negatives(paths.negatives(config.ance_rounds))
    # The cross-encoder sees each anchor once per epoch, so it can afford
    # a much deeper slice of the mined sets than the retriever; the extra
    # negatives teach it that shared filler tokens alone do not make a
    # pair relevant.
    batches = ance_mod.build_rerank_batches(
        _rerank_positive_sets(train_pairs), records, config.rerank_negative_cap
    )
    circle_config = train_mod.TrainConfig(
        objective=train_mod.OBJECTIVE_CIRCLE,
        epochs=config.reranker_epochs,
        batch_size=max(1, config.batch_size // 8),
        learning_rate=config.reranker_lr,
        seed=config.seed,
    )
    result = train_mod.train(circle, batches, [], circle_config)
    save_checkpoint(circle, paths.reranker_circle)
    train_mod.save_trace(
        paths.trace(MODEL_RERANKER_CIRCLE), result, model=MODEL_RERANKER_CIRCLE
    )

    # Decision threshold: best F1 separating co-purchased validation pairs
    # from the pairs the deployed filter actually faces, i.e. candidates
    # the final retriever surfaces that are not co-purchase kin.  Random
    # query pairs would be far too easy a negative class.
    excluded = _exclusion_set(paths)
    positives = _directed_examples(mining_mod.load_pairs(paths.pairs_val))
    if not positives:
        positives = _directed_examples(mining_mod.load_pairs(paths.pairs_train))
    corpus = corpus_mod.load_corpus(paths.norm_queries, paths.corpus_events)
    final = load_checkpoint(paths.retriever_ance(config.ance_rounds))
    anchors = sorted({source for source, _, _ in positives})
    mined = ance_mod.mine_hard_negatives(
        final,
        anchors,
        _rich_pool(corpus),
        excluded,
        config.top_k,
        _normalized_texts(corpus),
    )
    candidates = [
        (record.anchor, negative)
        for record in mined
        for negative in record.negatives
    ]
    rng = random.Random(config.seed + 9)
    negatives = (
        sorted(rng.sample(candidates, len(positives)))
        if len(candidates) > len(positives)
        else candidates
    )
    pos_scores = _sigmoid(circle.score_many([(s, t) for s, t, _ in positives]))
    neg_scores = _sigmoid(circle.score_many(negatives))
    threshold = select_threshold(pos_scores.tolist(), neg_scores.tolist())
    write_tsv(
        paths.threshold,
        THRESHOLD_KIND,
        [(f"{threshold:.6f}",)],
        model=MODEL_RERANKER_CIRCLE,
    )


def load_threshold(paths: PipelinePaths) -> float:
    _, rows = read_tsv(paths.threshold, THRESHOLD_KIND)
    return float(rows[0][0])


def _stage_index(config: PipelineConfig, paths: PipelinePaths) -> None:
    corpus = corpus_mod.load_corpus(paths.norm_queries, paths.corpus_events)
    model = load_checkpoint(paths.retriever_ance(config.ance_rounds))
    index = knn_mod.build_index(model, _rich_pool(corpus))
    knn_mod.save_index(index, paths.index_file)


def _ground_truth(
    paths: PipelinePaths, rich: set[str]
) -> dict[str, dict[str, float]]:
    """Behavior-based truth: each test query's rich partners with importances."""
    _, rows = read_tsv(paths.test_queries, TESTQ_KIND)
    test_ids = {row[0] for row in rows}
    truth: dict[str, dict[str, float]] = {qid: {} for qid in sorted(test_ids)}
    for pair in mining_mod.load_pairs(paths.pairs_test):
        if pair.source in test_ids and pair.target in rich:
            truth[pair.source][pair.target] = pair.importance
        if pair.target in test_ids and pair.source in rich:
            truth[pair.target][pair.source] = pair.importance
    return truth


def _retrieved_lists(
    model, truth_queries: Sequence[str], pool: Mapping[str, str], k: int
) -> dict[str, list[str]]:
    index = knn_mod.build_index(model, pool)
    probes = model.embed_many(list(truth_queries))
    ranked = index.knn_many(probes, k + 1)
    out = {}
    for query, hits in zip(truth_queries, ranked):
        out[query] = [qid for qid, _ in hits if qid != query][:k]
    return out


def _audit_metrics(model, audit: Sequence[eval_mod.AuditLabel]) -> dict[str, float]:
    """How well the bi-encoder's similarity orders the graded audit pairs."""
    sources = model.embed_many([label.source for label in audit])
    targets = model.embed_many([label.target for label in audit])
    scores = np.sum(sources * targets, axis=1)
    labels = [label.label for label in audit]
    return {
        "auroc_strict": eval_mod.auroc_strict(scores, labels),
        "auroc_notrel": eval_mod.auroc_notrel(scores, labels),
        "spearman": eval_mod.spearman(scores, labels),
    }


def _evaluate_retriever(
    model_id: str,
    model,
    truth: Mapping[str, Mapping[str, float]],
    pool: Mapping[str, str],
    audit: Sequence[eval_mod.AuditLabel],
    k: int,
) -> tuple[eval_mod.EvalReport, dict[str, list[str]]]:
    """The retriever's report, plus its top-k lists for the re-rankers."""
    queries = sorted(q for q in truth if truth[q])
    retrieved = _retrieved_lists(model, queries, pool, k)
    metrics: dict[str, float | int | None] = {"n_eval_queries": len(queries)}
    for scope in (eval_mod.SCOPE_TOP3, eval_mod.SCOPE_ALL):
        for average in (eval_mod.AVERAGE_MICRO, eval_mod.AVERAGE_MACRO):
            metrics[f"recall{k}_{scope}_{average}"] = eval_mod.recall_at_k(
                retrieved, truth, k, scope, average
            )
    metrics.update(_audit_metrics(model, audit))
    return eval_mod.EvalReport(model_id, metrics), retrieved


def _evaluate_reranker(
    model_id: str,
    model,
    truth: Mapping[str, Mapping[str, float]],
    retrieved: Mapping[str, Sequence[str]],
) -> eval_mod.EvalReport:
    # Queries without behavior-rich partners have nothing to rank.
    scored_truth = {q: truth[q] for q in sorted(truth) if truth[q]}
    scores: dict[str, dict[str, float]] = {}
    for query in sorted(scored_truth):
        candidates = sorted(set(scored_truth[query]) | set(retrieved.get(query, ())))
        values = model.score_many([(query, c) for c in candidates])
        scores[query] = dict(zip(candidates, (float(v) for v in values)))
    general = eval_mod.ndcg_at_3(scores, scored_truth, eval_mod.MODE_GENERAL)
    hard = eval_mod.ndcg_at_3(scores, scored_truth, eval_mod.MODE_HARD, retrieved)
    metrics = {
        "ndcg3_general": general.value,
        "ndcg3_general_queries": general.n_queries,
        "ndcg3_general_skipped": general.n_skipped,
        "ndcg3_hard": hard.value,
        "ndcg3_hard_queries": hard.n_queries,
        "ndcg3_hard_skipped": hard.n_skipped,
    }
    return eval_mod.EvalReport(model_id, metrics)


def _stage_evaluate(config: PipelineConfig, paths: PipelinePaths) -> None:
    corpus = corpus_mod.load_corpus(paths.norm_queries, paths.corpus_events)
    pool = _rich_pool(corpus)
    truth = _ground_truth(paths, set(pool))
    audit = eval_mod.load_audit_labels(paths.audit)

    final_id = MODEL_RETRIEVER_ANCE.format(round=config.ance_rounds)
    retrieved: dict[str, dict[str, list[str]]] = {}
    for model_id in model_ids(config.ance_rounds):
        model = load_checkpoint(paths.checkpoint(model_id))
        if model_id in RERANKER_IDS:
            # The re-rankers score what the final ANCE retriever surfaces.
            report = _evaluate_reranker(model_id, model, truth, retrieved[final_id])
        else:
            report, retrieved[model_id] = _evaluate_retriever(
                model_id, model, truth, pool, audit, config.eval_k
            )
        eval_mod.save_report(report, paths.report(model_id))


def _stage_specs(config: PipelineConfig, paths: PipelinePaths):
    """Declarative stage table: name, inputs, outputs, runner."""
    norm_files = [paths.stopwords, paths.script_map, paths.entities, paths.stemmer]
    synth_out = [paths.log, paths.intents, paths.relations, paths.audit, *norm_files]
    mine_out = [
        paths.pairs_proposed,
        paths.pairs_baseline,
        paths.pairs_exclusion,
        paths.pairs_ungrouped,
        paths.test_queries,
        paths.pairs_train,
        paths.pairs_val,
        paths.pairs_test,
        paths.pairs_baseline_train,
        paths.pairs_baseline_val,
    ]
    rounds = range(1, config.ance_rounds + 1)
    ance_ids = [MODEL_RETRIEVER_ANCE.format(round=r) for r in rounds]
    ance_out = [
        *(paths.checkpoint(m) for m in ance_ids),
        *(paths.negatives(r) for r in rounds),
        *(paths.trace(m) for m in ance_ids),
    ]
    retriever_ids = (MODEL_RETRIEVER_BASELINE, MODEL_RETRIEVER_WEIGHTED)
    report_ids = model_ids(config.ance_rounds)
    return [
        ("synth-gen", [], synth_out, _stage_synth),
        ("ingest", [paths.log], [paths.corpus_queries, paths.corpus_events], _stage_ingest),
        (
            "normalize",
            [paths.corpus_queries, paths.corpus_events, *norm_files],
            [paths.norm_queries, paths.groups],
            _stage_normalize,
        ),
        (
            "mine",
            [paths.norm_queries, paths.corpus_events, paths.groups],
            mine_out,
            _stage_mine,
        ),
        (
            "train-retriever",
            [
                paths.pairs_train,
                paths.pairs_val,
                paths.pairs_baseline_train,
                paths.pairs_baseline_val,
                paths.pairs_exclusion,
            ],
            [
                *(paths.checkpoint(m) for m in retriever_ids),
                *(paths.trace(m) for m in retriever_ids),
            ],
            _stage_train_retriever,
        ),
        (
            "ance",
            [
                paths.checkpoint(MODEL_RETRIEVER_WEIGHTED),
                paths.pairs_train,
                paths.pairs_val,
                paths.pairs_exclusion,
                paths.norm_queries,
                paths.corpus_events,
            ],
            ance_out,
            _stage_ance,
        ),
        (
            "train-reranker",
            [
                paths.pairs_train,
                paths.pairs_val,
                paths.pairs_exclusion,
                paths.negatives(config.ance_rounds),
                paths.retriever_ance(config.ance_rounds),
                paths.norm_queries,
                paths.corpus_events,
            ],
            [
                *(paths.checkpoint(m) for m in RERANKER_IDS),
                paths.threshold,
                *(paths.trace(m) for m in RERANKER_IDS),
            ],
            _stage_train_reranker,
        ),
        (
            "index",
            [
                paths.retriever_ance(config.ance_rounds),
                paths.norm_queries,
                paths.corpus_events,
            ],
            [paths.index_file],
            _stage_index,
        ),
        (
            "evaluate",
            [
                paths.norm_queries,
                paths.corpus_events,
                paths.test_queries,
                paths.pairs_test,
                paths.audit,
                *(paths.checkpoint(m) for m in report_ids),
            ],
            [paths.report(model_id) for model_id in report_ids],
            _stage_evaluate,
        ),
    ]


def _load_manifest(paths: PipelinePaths) -> dict:
    """The recorded manifest; a missing or malformed one counts as empty."""
    try:
        manifest = json.loads(paths.manifest.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    if not isinstance(manifest, dict) or not isinstance(manifest.get("stages"), dict):
        return {}
    return manifest


def _save_manifest(paths: PipelinePaths, manifest: dict) -> None:
    """Write through a sibling temp file and a rename.

    A run killed mid-write leaves the previous manifest whole.
    """
    paths.manifest.parent.mkdir(parents=True, exist_ok=True)
    tmp = paths.manifest.with_name(paths.manifest.name + ".tmp")
    tmp.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    os.replace(tmp, paths.manifest)


def _digests(files: Sequence[Path]) -> dict[str, str]:
    return {str(path.name): sha256_file(path) for path in files}


def _stage_fresh(entry: dict | None, inputs: Sequence[Path], outputs: Sequence[Path]) -> bool:
    if not isinstance(entry, dict):
        return False
    if any(not path.exists() for path in outputs):
        return False
    if entry.get("inputs") != _digests(list(inputs)):
        return False
    if entry.get("outputs") != _digests(list(outputs)):
        return False
    return True


@dataclass
class PipelineRun:
    out_dir: Path
    manifest: dict
    executed: list[str]
    skipped: list[str]


def run_pipeline(
    config: PipelineConfig,
    force: bool = False,
    stages: Sequence[str] | None = None,
    log: Callable[[str], None] | None = None,
) -> PipelineRun:
    """Run (or resume) all stages under config.out_dir.

    A stage reruns when its outputs are missing, its recorded input or
    output checksums no longer match, or ``force`` is set.  The manifest
    records the config hash, per-stage checksums, and timings.
    """
    paths = PipelinePaths(Path(config.out_dir))
    paths.root.mkdir(parents=True, exist_ok=True)
    manifest = _load_manifest(paths)
    config_hash = config.config_hash()
    if manifest.get("config_hash") != config_hash:
        manifest = {"config_hash": config_hash, "seed": config.seed, "stages": {}}
    config.save_json(paths.root / "config.json")

    executed: list[str] = []
    skipped: list[str] = []
    selected = set(stages) if stages is not None else None
    for name, inputs, outputs, runner in _stage_specs(config, paths):
        if selected is not None and name not in selected:
            continue
        entry = manifest["stages"].get(name)
        if not force and _stage_fresh(entry, inputs, outputs):
            skipped.append(name)
            if log:
                log(f"[{name}] up to date, skipped")
            continue
        started = time.perf_counter()
        try:
            runner(config, paths)
        except Exception as exc:
            raise StageFailure(name, exc) from exc
        elapsed = time.perf_counter() - started
        missing = [str(p) for p in outputs if not p.exists()]
        if missing:
            raise StageFailure(
                name, RuntimeError(f"did not produce declared outputs: {missing}")
            )
        manifest["stages"][name] = {
            "inputs": _digests(list(inputs)),
            "outputs": _digests(list(outputs)),
            "seconds": round(elapsed, 3),
        }
        _save_manifest(paths, manifest)
        executed.append(name)
        if log:
            log(f"[{name}] done in {elapsed:.1f}s")
    return PipelineRun(paths.root, manifest, executed, skipped)


EVAL_MODE_RETRIEVAL = "retrieval"
EVAL_MODE_RERANK = "rerank"
EVAL_MODE_AUDIT = "audit"


def evaluate_model(
    config: PipelineConfig, model_id: str, mode: str
) -> eval_mod.EvalReport:
    """Metrics for one model/mode from an existing run's artifacts.

    Retrievers take the retrieval and audit modes, re-rankers the rerank
    mode; any other model id or mode raises before anything is loaded.
    """
    if model_id not in model_ids(config.ance_rounds):
        raise ValueError(f"unknown model id: {model_id!r}")
    if model_id in RERANKER_IDS:
        modes = (EVAL_MODE_RERANK,)
    else:
        modes = (EVAL_MODE_RETRIEVAL, EVAL_MODE_AUDIT)
    if mode not in modes:
        raise ValueError(
            f"model {model_id!r} cannot be evaluated in mode {mode!r}"
            f" (its modes: {', '.join(modes)})"
        )
    paths = PipelinePaths(Path(config.out_dir))
    model = load_checkpoint(paths.checkpoint(model_id))
    corpus = corpus_mod.load_corpus(paths.norm_queries, paths.corpus_events)
    pool = _rich_pool(corpus)
    if mode == EVAL_MODE_AUDIT:
        audit = eval_mod.load_audit_labels(paths.audit)
        return eval_mod.EvalReport(model_id, _audit_metrics(model, audit))
    truth = _ground_truth(paths, set(pool))
    if mode == EVAL_MODE_RETRIEVAL:
        audit = eval_mod.load_audit_labels(paths.audit)
        report, _ = _evaluate_retriever(
            model_id, model, truth, pool, audit, config.eval_k
        )
        return report
    final = load_checkpoint(paths.retriever_ance(config.ance_rounds))
    queries = sorted(q for q in truth if truth[q])
    retrieved = _retrieved_lists(final, queries, pool, config.eval_k)
    return _evaluate_reranker(model_id, model, truth, retrieved)


def load_reports(config: PipelineConfig) -> dict[str, eval_mod.EvalReport]:
    paths = PipelinePaths(Path(config.out_dir))
    reports = {}
    for report_path in sorted(paths.reports_dir.glob("report_*.tsv")):
        report = eval_mod.load_report(report_path)
        reports[report.model_id] = report
    return reports


def tail_queries(corpus: corpus_mod.Corpus, fraction: float = 1 / 3) -> list[str]:
    """Bottom-traffic slice by total surviving purchases (ties by id)."""
    ordered = sorted(
        corpus.queries, key=lambda q: (corpus.queries[q].total_purchases, q)
    )
    n_tail = max(1, int(len(ordered) * fraction))
    return ordered[:n_tail]


@dataclass(frozen=True)
class ServingState:
    """What ``reformulate`` needs from a finished run."""

    bi_encoder: BiEncoderModel
    index: knn_mod.KnnIndex
    cross_encoder: CrossEncoderModel
    threshold: float


def load_serving_state(config: PipelineConfig) -> ServingState:
    """Load the final retriever, its index, the re-ranker and the threshold.

    The index must have been built from the final retriever; an index
    from any other checkpoint is rejected with the index file named.
    """
    paths = PipelinePaths(Path(config.out_dir))
    bi_encoder = load_checkpoint(paths.retriever_ance(config.ance_rounds))
    index = knn_mod.load_index(
        paths.index_file, expected_model_checksum=params_checksum(bi_encoder)
    )
    return ServingState(
        bi_encoder,
        index,
        load_checkpoint(paths.reranker_circle),
        load_threshold(paths),
    )


def tail_reformulation_rate(
    config: PipelineConfig, fraction: float = 1 / 3
) -> float:
    """Share of tail queries whose reformulations include their own intent."""
    paths = PipelinePaths(Path(config.out_dir))
    corpus = corpus_mod.load_corpus(paths.norm_queries, paths.corpus_events)
    truth = synth_mod.load_ground_truth(paths.intents, paths.relations)
    state = load_serving_state(config)

    tail = tail_queries(corpus, fraction)
    hits = 0
    for query in tail:
        result = reformulate(
            query,
            state.bi_encoder,
            state.index,
            state.cross_encoder,
            top_k=config.top_k,
            threshold=state.threshold,
            n_max=config.n_max,
        )
        intent = truth.query_intent.get(query)
        if any(
            truth.query_intent.get(target) == intent for target, _ in result.targets
        ):
            hits += 1
    return hits / len(tail)
