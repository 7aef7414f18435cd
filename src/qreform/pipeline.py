"""End-to-end orchestration: staged pipeline, inference, augmentation.

Stages (synth-gen, ingest, normalize, mine, train-retriever, ance,
train-reranker, index, evaluate) are file-to-file transformations tracked
in a run manifest.  A stage is skipped when its outputs exist and the
recorded input/output checksums still match, so deleting one intermediate
file reruns only that file's producer and whatever actually changes
downstream.  Every model the trend tables compare is trained and
evaluated here: the unweighted top-30% baseline retriever, the
importance-weighted retriever, the last of its hard-negative fine-tuning
rounds, and the two re-rankers.  Stage runners call the library modules
directly, and each model's checkpoint and report are named by its model
id.  A run writes only files that a stage, serving, a script or the
benchmark reads; the per-epoch losses of every model trained, each ANCE
round's included, go into the manifest entry of the stage that trained it.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from . import ance as ance_mod
from . import corpus as corpus_mod
from . import encoders as enc_mod
from . import evaluation as eval_mod
from . import files as files_mod
from . import knn as knn_mod
from . import mining as mining_mod
from . import normalize as norm_mod
from . import synthgen as synth_mod
from . import training as train_mod
from .encoders import (
    BiEncoderModel,
    CrossEncoderModel,
    Featurizers,
    load_checkpoint,
    params_checksum,
    save_checkpoint,
)
from .files import atomic_write, read_tsv, sha256_bytes, sha256_file, write_tsv

MODEL_RETRIEVER_BASELINE = "retriever_top30_baseline"
MODEL_RETRIEVER_WEIGHTED = "retriever_weighted"
MODEL_RETRIEVER_ANCE = "retriever_ance_r{round}"
MODEL_RERANKER_POINTWISE = "reranker_pointwise"
MODEL_RERANKER_CIRCLE = "reranker_circle_ance"
RERANKER_IDS = (MODEL_RERANKER_POINTWISE, MODEL_RERANKER_CIRCLE)


def model_ids(rounds: int) -> list[str]:
    """Every model a run keeps and reports on, retrievers first: of the
    ANCE rounds, only the last."""
    return [
        MODEL_RETRIEVER_BASELINE,
        MODEL_RETRIEVER_WEIGHTED,
        MODEL_RETRIEVER_ANCE.format(round=rounds),
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


def _check_positive(**values: int) -> None:
    for name, value in values.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


@dataclass(frozen=True)
class AugmentationParams:
    """Hyper-parameters of the feature blend f̂ = α·f + (1−α)·β·mean(f_targets)."""

    alpha: float = 0.8
    beta: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.beta < 0.0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")


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
) -> float:
    """Tier gate: only behavior-impoverished queries are blended."""
    if tier == corpus_mod.TIER_RICH:
        return float(f_source)
    return augment_feature(f_source, f_targets, params)


@dataclass(frozen=True)
class ReformulationResult:
    source: str
    targets: tuple[tuple[str, float], ...]
    threshold: float


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """The squashed scores in float64, whatever the model's dtype.  Under
    NumPy 2 a Python float compared with a float32 array is rounded to
    float32 first, so a float32 score just below the threshold could pass;
    a threshold is chosen and applied on these float64 values."""
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))


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
    result is valid: it means no reformulation is offered.  The query is
    hashed once, and both encoders read those n-gram digests.  Candidates
    stay index positions throughout: the cross-encoder scores them as
    positions of the pool it holds for the index, and only the kept
    targets become text.  Positions follow id order, so ordering by
    (-score, position) is ordering by (-score, id).
    """
    if not query:
        raise ValueError("cannot reformulate an empty query")
    _check_positive(top_k=top_k, n_max=n_max)
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    digests = enc_mod._ngram_digests(query)
    probe = bi_encoder.embed(query, digests=digests)
    positions = index.top_k(probe[None, :], top_k)[0][0]
    own = index.position_of.get(query)
    if own is not None:
        positions = positions[positions != own]
    if not positions.size:
        return ReformulationResult(query, (), threshold)
    pool = cross_encoder.pool(index.query_ids)
    scores = _sigmoid(cross_encoder.score_pool(query, pool, positions, source_digests=digests))
    keep = np.flatnonzero(scores >= threshold)
    if keep.size > n_max:
        # The n_max-th best score, and every passing score equal to it.
        cut = np.partition(scores[keep], keep.size - n_max)[keep.size - n_max]
        keep = keep[scores[keep] >= cut]
    keep = keep[np.lexsort((positions[keep], -scores[keep]))[:n_max]]
    ids = index.query_ids
    targets = zip([ids[p] for p in positions[keep].tolist()], scores[keep].tolist())
    return ReformulationResult(query, tuple(targets), threshold)


def select_threshold(
    positive_scores: Sequence[float], negative_scores: Sequence[float]
) -> float:
    """Score cutoff maximizing F1 for separating the two samples.

    Candidates are the observed scores; ties resolve to the lowest
    threshold achieving the best F1, so the choice is deterministic.
    """
    if not positive_scores or not negative_scores:
        raise ValueError("threshold selection needs scores from both classes")
    pos = np.sort(np.asarray(positive_scores, dtype=np.float64))
    neg = np.sort(np.asarray(negative_scores, dtype=np.float64))
    observed = np.unique(np.concatenate([pos, neg]))
    tp = len(pos) - np.searchsorted(pos, observed)
    fp = len(neg) - np.searchsorted(neg, observed)
    fn = len(pos) - tp
    best = int(np.argmax(2 * tp / (2 * tp + fp + fn)))
    # Cutting exactly at an observed score rejects anything even a hair
    # weaker than the weakest accepted example; place the cut midway
    # between the boundary score and the next one below, as a decision
    # stump would.
    if best:
        return (float(observed[best]) + float(observed[best - 1])) / 2.0
    return float(observed[best])


def _fits(value: object, default: object) -> bool:
    """Whether a JSON value may stand where the field's default does: of
    the default's type, where an int also serves a float, and a bool
    serves only a bool."""
    if isinstance(value, bool) or isinstance(default, bool):
        return type(value) is type(default)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(default))


def _check_section(cls, data: object, section: str) -> None:
    """A config section must be a JSON object naming only fields of
    ``cls``, each holding a value of its default's type; a list field
    holds a JSON list of its default items' type."""
    if not isinstance(data, Mapping):
        raise ValueError(
            f"{section} config must be a JSON object, got {type(data).__name__}"
        )
    defaults = vars(cls())  # the fields' default values, by name
    unknown = sorted(set(data) - set(defaults))
    if unknown:
        raise ValueError(f"unknown {section} config keys: {', '.join(unknown)}")
    for name, value in data.items():
        default = defaults[name]
        if dataclasses.is_dataclass(default):
            continue  # a nested section, checked on its own
        if isinstance(default, tuple):
            if not isinstance(value, (list, tuple)):
                raise ValueError(
                    f"{name} config must be a JSON list, got {type(value).__name__}"
                )
            bad = [item for item in value if not _fits(item, default[0])]
            if bad:
                raise ValueError(
                    f"{section} config {name} must list {type(default[0]).__name__}"
                    f" values, got {bad[0]!r}"
                )
        elif not _fits(value, default):
            raise ValueError(
                f"{section} config {name} must be {type(default).__name__},"
                f" got {type(value).__name__} {value!r}"
            )


_COUNT_FIELDS = (
    "n_test_queries", "bi_feature_dim", "embed_dim", "cross_feature_dim",
    "retriever_epochs", "ance_epochs_per_round", "reranker_epochs", "batch_size",
    "ance_rounds", "top_k", "hard_negative_cap", "rerank_negative_cap", "eval_k", "n_max",
    "rich_threshold",
)


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

    def __post_init__(self) -> None:
        # A count below one fails a stage late or yields a meaningless
        # artifact (a recall@0 report, or a rich pool of every query and
        # nothing to reformulate); the re-ranker and serving need a final
        # ANCE round.  min_purchase is checked by the ingest stage.
        counts = {name: getattr(self, name) for name in _COUNT_FIELDS}
        counts.update((f"hidden_dims[{i}]", d) for i, d in enumerate(self.hidden_dims))
        _check_positive(**counts)

    def to_dict(self) -> dict:
        data = dataclasses.asdict(self)
        data["hidden_dims"] = list(self.hidden_dims)
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "PipelineConfig":
        """Rejects a section that is not an object, a key that names no
        field, or a value of the wrong type, with a ValueError naming the
        section and the field."""
        _check_section(cls, data, "top-level")
        data = dict(data)
        if "synth" in data:
            _check_section(synth_mod.SynthConfig, data["synth"], "synth")
            data["synth"] = synth_mod.SynthConfig(**data["synth"])
        if "hidden_dims" in data:
            data["hidden_dims"] = tuple(data["hidden_dims"])
        return cls(**data)

    def save_json(self, path) -> None:
        with atomic_write(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")

    @classmethod
    def load_json(cls, path) -> "PipelineConfig":
        try:
            return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc

    def config_hash(self) -> str:
        """Hash of every setting that shapes the artifacts, and of their
        format version, so a run in an older format reruns every stage.

        ``out_dir`` is left out: it says where a run lives, not what it
        holds, so a copied or moved run resumes instead of rerunning.
        """
        data = self.to_dict()
        del data["out_dir"]
        data["format_version"] = files_mod._HEADER_VERSION
        return sha256_bytes(json.dumps(data, sort_keys=True).encode("utf-8"))


class PipelinePaths:
    """Where a run keeps its files: fixed files are attributes, and each
    model's checkpoint and report are named by its model id."""

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
        # The benchmark loads the corpus through this name; the alias goes
        # at its next declared change (ROADMAP item 6).
        self.norm_queries = self.corpus_queries
        self.groups = root / "groups.tsv"
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

    def report(self, model_id: str) -> Path:
        return self.reports_dir / f"report_{model_id}.tsv"

    def negatives(self, round_index: int) -> Path:
        return self.root / f"hard_negatives_round{round_index}.tsv"

    def retriever_ance(self, round_index: int) -> Path:
        return self.checkpoint(MODEL_RETRIEVER_ANCE.format(round=round_index))


TESTQ_KIND = "test-queries"
THRESHOLD_KIND = "rerank-threshold"
# What a training stage returns: each model's per-epoch
# [epoch, train_loss, val_loss] rows, by model id.
Losses = dict[str, list[list]]


def _stage_synth(
    config: PipelineConfig, paths: PipelinePaths, featurizers: Featurizers
) -> None:
    result = synth_mod.generate(config.synth, config.seed)
    synth_mod.write_all(result, paths.root)


def _stage_ingest(
    config: PipelineConfig, paths: PipelinePaths, featurizers: Featurizers
) -> None:
    corpus = corpus_mod.ingest_log(paths.log, config.min_purchase)
    corpus_mod.save_queries(corpus, paths.corpus_queries)
    corpus_mod.save_events(corpus, paths.corpus_events)


def _load_norm_config(paths: PipelinePaths) -> norm_mod.NormalizationConfig:
    return norm_mod.load_config(
        stopwords_path=paths.stopwords,
        script_map_path=paths.script_map,
        entities_path=paths.entities,
        stemmer_path=paths.stemmer,
    )


def _stage_normalize(
    config: PipelineConfig, paths: PipelinePaths, featurizers: Featurizers
) -> None:
    corpus = corpus_mod.load_corpus(paths.corpus_queries, paths.corpus_events)
    norm_config = _load_norm_config(paths)
    groups = norm_mod.group_queries(corpus, norm_config)
    norm_mod.save_groups(paths.groups, groups)


def _group_copurchase(
    groups: Sequence[norm_mod.QueryGroup], min_purchase: int
) -> list[tuple[str, str]]:
    """Co-purchased pairs of group keys, from the products each group
    bought at least ``min_purchase`` times; groups with none are left out."""
    product_sets = {
        g.normalized_text: frozenset(g.surviving_counts(min_purchase)) for g in groups
    }
    return corpus_mod.copurchase_from_product_sets(
        {key: products for key, products in product_sets.items() if products}
    )


def _stage_mine(
    config: PipelineConfig, paths: PipelinePaths, featurizers: Featurizers
) -> None:
    corpus = corpus_mod.load_corpus(paths.corpus_queries, paths.corpus_events)
    groups = norm_mod.load_groups(paths.groups, corpus)
    scored = mining_mod.mine_pairs(
        groups,
        _group_copurchase(groups, config.min_purchase),
        floor=0.0,
        min_purchase=config.min_purchase,
    )
    proposed = [p for p in scored if p.importance >= config.mining_floor]
    baseline = mining_mod.baseline_top30(scored)
    # The kin relation shields queries from negative sampling, which needs
    # only evidence of relatedness, not a stable distribution estimate:
    # it takes every raw co-purchase link (min_purchase 1), and kin_pairs
    # adds same-group members and queries one shared neighbor apart.
    kin = mining_mod.kin_pairs(groups, _group_copurchase(groups, 1))
    singles = norm_mod.singleton_groups(corpus)
    ungrouped = mining_mod.mine_pairs(
        singles,
        _group_copurchase(singles, config.min_purchase),
        floor=config.mining_floor,
        min_purchase=config.min_purchase,
    )
    mining_mod.save_kin(paths.pairs_exclusion, kin)
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


def _trained_pairs(path, floor: float):
    """Load pairs whose importance clears the training floor.

    Mined pairs below the floor stay in the pair files (they still count
    as co-purchase knowledge: evaluation truth and reformulation
    candidates), but they are kept out of training batches.
    An adaptive optimizer normalizes gradient magnitudes per parameter,
    so a near-zero contrastive weight does not yield near-zero learning;
    dropping the pair is the only faithful reading of its weight.
    """
    return [p for p in mining_mod.load_pairs(path) if p.importance >= floor]


def _stage_train_retriever(
    config: PipelineConfig, paths: PipelinePaths, featurizers: Featurizers
) -> Losses:
    kin = mining_mod.load_kin(paths.pairs_exclusion)
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
    losses = {}
    for model_id, train_path, val_path in runs:
        model = BiEncoderModel.initialize(
            config.bi_feature_dim, config.embed_dim, config.seed, featurizers
        )
        result = train_mod.train(
            model,
            _retrieval_examples(_trained_pairs(train_path, config.train_floor)),
            _retrieval_examples(_trained_pairs(val_path, config.train_floor)),
            train_config,
            kin=kin,
        )
        save_checkpoint(model, paths.checkpoint(model_id))
        losses[model_id] = result.trace
    return losses


def _stage_ance(
    config: PipelineConfig, paths: PipelinePaths, featurizers: Featurizers
) -> Losses:
    """Hard-negative rounds on the weighted retriever.

    Round r mines with the round r−1 model (round 1 with the weighted
    retriever), then fine-tunes it with the contrastive objective, whose
    in-batch pool each anchor's mined negatives augment, under seed
    ``config.seed + r``.  Each round's losses are returned under its own
    model id, but only the final round's checkpoint is saved, under
    ``retriever_ance_r{ance_rounds}``: the index, serving and evaluate
    read that one.  Only the final round's negatives are saved, each
    anchor's cut to its first ``config.rerank_negative_cap``: exactly what
    the re-ranker trains on.  Their ``source_checkpoint`` column still
    names the model that mined them, the round ``ance_rounds − 1`` model,
    by its parameter checksum, although no file of that model is kept.
    """
    corpus = corpus_mod.load_corpus(paths.corpus_queries, paths.corpus_events)
    model = load_checkpoint(paths.checkpoint(MODEL_RETRIEVER_WEIGHTED), featurizers)
    kin = mining_mod.load_kin(paths.pairs_exclusion)
    pool = corpus_mod.rich_queries(corpus, config.rich_threshold)
    train_examples = _retrieval_examples(
        _trained_pairs(paths.pairs_train, config.train_floor)
    )
    val_examples = _retrieval_examples(
        _trained_pairs(paths.pairs_val, config.train_floor)
    )
    anchors = {example.anchor for example in train_examples}
    losses = {}
    for round_index in range(1, config.ance_rounds + 1):
        records = ance_mod.mine_hard_negatives(
            model, anchors, pool, kin, config.top_k, round_index
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
            kin=kin,
            hard_negatives=ance_mod.negatives_by_anchor(records),
        )
        losses[MODEL_RETRIEVER_ANCE.format(round=round_index)] = result.trace
    save_checkpoint(model, paths.retriever_ance(config.ance_rounds))
    # The cross-encoder sees each anchor once per epoch, so it can afford
    # a much deeper slice of the mined sets than the retriever; the extra
    # negatives teach it that shared filler tokens alone do not make a
    # pair relevant.
    cap = config.rerank_negative_cap
    final = [dataclasses.replace(r, negatives=r.negatives[:cap]) for r in records]
    ance_mod.save_hard_negatives(paths.negatives(config.ance_rounds), final)
    return losses


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


def _stage_train_reranker(
    config: PipelineConfig, paths: PipelinePaths, featurizers: Featurizers
) -> Losses:
    train_pairs = _trained_pairs(paths.pairs_train, config.train_floor)
    val_pairs = _trained_pairs(paths.pairs_val, config.train_floor)

    pointwise = CrossEncoderModel.initialize(
        config.cross_feature_dim, config.hidden_dims, config.seed, featurizers
    )
    pointwise_config = train_mod.TrainConfig(
        objective=train_mod.OBJECTIVE_POINTWISE,
        epochs=config.reranker_epochs,
        batch_size=config.batch_size,
        learning_rate=config.reranker_lr,
        seed=config.seed,
    )
    pointwise_result = train_mod.train(
        pointwise,
        _directed_examples(train_pairs),
        _directed_examples(val_pairs),
        pointwise_config,
    )
    save_checkpoint(pointwise, paths.checkpoint(MODEL_RERANKER_POINTWISE))
    # Circle training is where a build peaks; the pointwise model's arrays
    # need not be held through it, since circle starts from the checkpoint.
    del pointwise

    # Learn-from-teacher: fine-tune a copy of the pointwise model with
    # circle loss on the final ANCE round's hard-negative sets.
    circle = load_checkpoint(paths.checkpoint(MODEL_RERANKER_POINTWISE), featurizers)
    records = ance_mod.load_hard_negatives(paths.negatives(config.ance_rounds))
    batches = ance_mod.build_rerank_batches(_rerank_positive_sets(train_pairs), records)
    circle_config = train_mod.TrainConfig(
        objective=train_mod.OBJECTIVE_CIRCLE,
        epochs=config.reranker_epochs,
        batch_size=max(1, config.batch_size // 8),
        learning_rate=config.reranker_lr,
        seed=config.seed,
    )
    circle_result = train_mod.train(circle, batches, [], circle_config)
    save_checkpoint(circle, paths.reranker_circle)

    # Decision threshold: best F1 separating co-purchased validation pairs
    # from the pairs the deployed filter actually faces, i.e. candidates
    # the final retriever surfaces that are not kin.  Random
    # query pairs would be far too easy a negative class.
    positives = _directed_examples(mining_mod.load_pairs(paths.pairs_val))
    if not positives:
        positives = _directed_examples(mining_mod.load_pairs(paths.pairs_train))
    corpus = corpus_mod.load_corpus(paths.corpus_queries, paths.corpus_events)
    final = load_checkpoint(paths.retriever_ance(config.ance_rounds), featurizers)
    anchors = sorted({source for source, _, _ in positives})
    mined = ance_mod.mine_hard_negatives(
        final,
        anchors,
        corpus_mod.rich_queries(corpus, config.rich_threshold),
        mining_mod.load_kin(paths.pairs_exclusion),
        config.top_k,
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
    return {
        MODEL_RERANKER_POINTWISE: pointwise_result.trace,
        MODEL_RERANKER_CIRCLE: circle_result.trace,
    }


def load_threshold(paths: PipelinePaths) -> float:
    _, rows = read_tsv(paths.threshold, THRESHOLD_KIND)
    try:
        threshold = float(rows[0][0])
    except (IndexError, ValueError):
        raise files_mod.FileFormatError(
            f"{paths.threshold}: expected a row holding the threshold, got {rows[:1]!r}"
        ) from None
    if not math.isfinite(threshold):
        raise files_mod.FileFormatError(
            f"{paths.threshold}: the threshold must be finite, got {rows[0][0]!r}"
        )
    return threshold


def _stage_index(
    config: PipelineConfig, paths: PipelinePaths, featurizers: Featurizers
) -> None:
    corpus = corpus_mod.load_corpus(paths.corpus_queries, paths.corpus_events)
    model = load_checkpoint(paths.retriever_ance(config.ance_rounds), featurizers)
    index = knn_mod.build_index(model, corpus_mod.rich_queries(corpus, config.rich_threshold))
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


def _evaluation_inputs(config: PipelineConfig, paths: PipelinePaths):
    """The rich pool, the behavior truth and the audit labels of a run."""
    corpus = corpus_mod.load_corpus(paths.corpus_queries, paths.corpus_events)
    pool = corpus_mod.rich_queries(corpus, config.rich_threshold)
    truth = _ground_truth(paths, set(pool))
    return pool, truth, eval_mod.load_audit_labels(paths.audit)


def _model_report(
    model_id: str,
    model,
    pool: Sequence[str],
    truth: Mapping[str, Mapping[str, float]],
    audit: Sequence[eval_mod.AuditLabel],
    final_lists: Mapping[str, Sequence[str]] | None,
    k: int,
) -> tuple[eval_mod.EvalReport, Mapping[str, Sequence[str]]]:
    """One model's report, and the top-k lists it was scored on.

    A retriever retrieves its own lists from ``pool`` and is scored on
    recall against ``truth`` and on how its similarity orders the audit
    pairs.  A re-ranker re-scores ``final_lists``, the final retriever's
    lists, together with each query's truth partners.  Queries without
    behavior-rich partners are left out.
    """
    queries = sorted(q for q in truth if truth[q])
    if model_id in RERANKER_IDS:
        # Interned, the queries are hashed once per run's table, not once
        # per re-ranker by the one-source scoring.
        model.featurizer.ids(queries)
        scored_truth = {q: truth[q] for q in queries}
        scores: dict[str, dict[str, float]] = {}
        for query in queries:
            candidates = sorted(set(truth[query]) | set(final_lists.get(query, ())))
            values = model.score_many([(query, c) for c in candidates])
            scores[query] = dict(zip(candidates, (float(v) for v in values)))
        metrics: dict[str, float | int | None] = {}
        for mode in (eval_mod.MODE_GENERAL, eval_mod.MODE_HARD):
            ndcg = eval_mod.ndcg_at_3(scores, scored_truth, mode, final_lists)
            metrics[f"ndcg3_{mode}"] = ndcg.value
            metrics[f"ndcg3_{mode}_queries"] = ndcg.n_queries
            metrics[f"ndcg3_{mode}_skipped"] = ndcg.n_skipped
        return eval_mod.EvalReport(model_id, metrics), final_lists

    index = knn_mod.build_index(model, pool)
    ranked = index.knn_many(model.embed_many(queries), k + 1)
    retrieved = {
        query: [qid for qid, _ in hits if qid != query][:k]
        for query, hits in zip(queries, ranked)
    }
    metrics = {"n_eval_queries": len(queries)}
    for scope in (eval_mod.SCOPE_TOP3, eval_mod.SCOPE_ALL):
        for average in (eval_mod.AVERAGE_MICRO, eval_mod.AVERAGE_MACRO):
            metrics[f"recall{k}_{scope}_{average}"] = eval_mod.recall_at_k(
                retrieved, truth, k, scope, average
            )
    sources = model.embed_many([label.source for label in audit])
    targets = model.embed_many([label.target for label in audit])
    similarity = np.sum(sources * targets, axis=1)
    labels = [label.label for label in audit]
    metrics["auroc_strict"] = eval_mod.auroc_strict(similarity, labels)
    metrics["auroc_notrel"] = eval_mod.auroc_notrel(similarity, labels)
    metrics["spearman"] = eval_mod.spearman(similarity, labels)
    return eval_mod.EvalReport(model_id, metrics), retrieved


def _stage_evaluate(
    config: PipelineConfig, paths: PipelinePaths, featurizers: Featurizers
) -> None:
    """Save every model's report; the re-rankers score what the final
    ANCE retriever, reported before them, surfaces."""
    inputs = _evaluation_inputs(config, paths)
    final_id = MODEL_RETRIEVER_ANCE.format(round=config.ance_rounds)
    final_lists = None
    for model_id in model_ids(config.ance_rounds):
        model = load_checkpoint(paths.checkpoint(model_id), featurizers)
        report, lists = _model_report(
            model_id, model, *inputs, final_lists, config.eval_k
        )
        if model_id == final_id:
            final_lists = lists
        eval_mod.save_report(report, paths.report(model_id))


def _stage_specs(config: PipelineConfig, paths: PipelinePaths):
    """Declarative stage table: name, inputs, outputs, runner.  A runner
    takes the config, the paths and the run's featurizer tables; a
    training stage's runner returns its models' ``Losses``."""
    norm_files = [paths.stopwords, paths.script_map, paths.entities, paths.stemmer]
    synth_out = [paths.log, paths.intents, paths.relations, paths.audit, *norm_files]
    mine_out = [
        paths.pairs_exclusion,
        paths.pairs_ungrouped,
        paths.test_queries,
        paths.pairs_train,
        paths.pairs_val,
        paths.pairs_test,
        paths.pairs_baseline_train,
        paths.pairs_baseline_val,
    ]
    retriever_ids = (MODEL_RETRIEVER_BASELINE, MODEL_RETRIEVER_WEIGHTED)
    report_ids = model_ids(config.ance_rounds)
    return [
        ("synth-gen", [], synth_out, _stage_synth),
        ("ingest", [paths.log], [paths.corpus_queries, paths.corpus_events], _stage_ingest),
        (
            "normalize",
            [paths.corpus_queries, paths.corpus_events, *norm_files],
            [paths.groups],
            _stage_normalize,
        ),
        (
            "mine",
            [paths.corpus_queries, paths.corpus_events, paths.groups],
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
            [paths.checkpoint(m) for m in retriever_ids],
            _stage_train_retriever,
        ),
        (
            "ance",
            [
                paths.checkpoint(MODEL_RETRIEVER_WEIGHTED),
                paths.pairs_train,
                paths.pairs_val,
                paths.pairs_exclusion,
                paths.corpus_queries,
                paths.corpus_events,
            ],
            [paths.retriever_ance(config.ance_rounds), paths.negatives(config.ance_rounds)],
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
                paths.corpus_queries,
                paths.corpus_events,
            ],
            [*(paths.checkpoint(m) for m in RERANKER_IDS), paths.threshold],
            _stage_train_reranker,
        ),
        (
            "index",
            [
                paths.retriever_ance(config.ance_rounds),
                paths.corpus_queries,
                paths.corpus_events,
            ],
            [paths.index_file],
            _stage_index,
        ),
        (
            "evaluate",
            [
                paths.corpus_queries,
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
    with atomic_write(paths.manifest, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


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


def _openblas_thread_calls():
    """``(get, set)`` for the thread count of numpy's bundled OpenBLAS, or
    None when numpy ships no library exporting them."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob(
        "libscipy_openblas64_*.so"
    )):
        try:
            lib = ctypes.CDLL(str(path))
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, and give the
    caller's thread count back after it.

    A GEMM sums in an order that depends on its thread count, so pinning
    makes every output the same whatever ``OPENBLAS_NUM_THREADS`` the
    caller set, and it leaves the second core to Adam's helper thread
    rather than to idle BLAS workers.  Yields the count in force: 1, or
    ``"unpinned"`` when numpy's OpenBLAS exposes no setter.
    """
    calls = _openblas_thread_calls()
    if calls is None:
        yield "unpinned"
        return
    get, set_ = calls
    previous = get()
    set_(1)
    try:
        yield 1
    finally:
        set_(previous)


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
    records the config hash, per-stage checksums and timings, each
    training stage's per-epoch ``losses`` by model id, and the BLAS thread
    count each stage ran with: the run holds numpy's OpenBLAS
    to one thread (``_one_blas_thread``), so its outputs do not depend on
    the caller's thread count.  The stages share one map of featurizer
    tables, which the run drops when it returns.
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
    # The run's feature tables: every model the stages build or load reads
    # them, so a batch text is featurized once per feature_dim per run.
    featurizers: Featurizers = {}
    selected = set(stages) if stages is not None else None
    with _one_blas_thread() as blas_threads:
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
                losses = runner(config, paths, featurizers)
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
                "blas_threads": blas_threads,
            }
            if losses is not None:
                manifest["stages"][name]["losses"] = losses
            _save_manifest(paths, manifest)
            executed.append(name)
            if log:
                log(f"[{name}] done in {elapsed:.1f}s")
    return PipelineRun(paths.root, manifest, executed, skipped)


def evaluate_model(config: PipelineConfig, model_id: str) -> eval_mod.EvalReport:
    """The report the evaluate stage saves for ``model_id``, computed
    afresh from an existing run's artifacts.

    A re-ranker's report needs the final retriever's lists, so that
    retriever is evaluated first.  An unknown model id raises before
    anything is loaded.  Its models share one map of featurizer tables,
    as a run's do.  Like ``run_pipeline``, it computes with numpy's
    OpenBLAS on one thread, so the report equals the saved one whatever
    thread count the caller set.
    """
    known = model_ids(config.ance_rounds)
    if model_id not in known:
        raise ValueError(f"unknown model id: {model_id!r}; a run reports on {', '.join(known)}")
    paths = PipelinePaths(Path(config.out_dir))
    featurizers: Featurizers = {}
    with _one_blas_thread():
        inputs = _evaluation_inputs(config, paths)
        final_lists = None
        if model_id in RERANKER_IDS:
            final_id = MODEL_RETRIEVER_ANCE.format(round=config.ance_rounds)
            final = load_checkpoint(paths.checkpoint(final_id), featurizers)
            _, final_lists = _model_report(final_id, final, *inputs, None, config.eval_k)
        model = load_checkpoint(paths.checkpoint(model_id), featurizers)
        report, _ = _model_report(model_id, model, *inputs, final_lists, config.eval_k)
    return report


def load_reports(config: PipelineConfig) -> dict[str, eval_mod.EvalReport]:
    paths = PipelinePaths(Path(config.out_dir))
    reports = {}
    for report_path in sorted(paths.reports_dir.glob("report_*.tsv")):
        report = eval_mod.load_report(report_path)
        reports[report.model_id] = report
    return reports


TAIL_FRACTION = 1 / 3


def tail_queries(corpus: corpus_mod.Corpus) -> list[str]:
    """The bottom ``TAIL_FRACTION`` of queries by total surviving
    purchases (ties by id), at least one."""
    ordered = sorted(
        corpus.queries, key=lambda q: (corpus.queries[q].total_purchases, q)
    )
    n_tail = max(1, int(len(ordered) * TAIL_FRACTION))
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


def tail_reformulation_rate(config: PipelineConfig) -> float:
    """Share of tail queries whose reformulations include their own intent."""
    paths = PipelinePaths(Path(config.out_dir))
    corpus = corpus_mod.load_corpus(paths.corpus_queries, paths.corpus_events)
    truth = synth_mod.load_ground_truth(paths.intents, paths.relations)
    state = load_serving_state(config)

    tail = tail_queries(corpus)
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
