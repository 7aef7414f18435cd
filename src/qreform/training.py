"""Training objectives and the optimizer loop.

Three losses: importance-weighted contrastive retrieval (infoNCE over
in-batch negatives, each positive pair weighted by its behavioral
importance), pointwise regression of the squashed cross-encoder score
onto the directed divergence target, and pairwise circle loss over
(positive, hard-negative) margins.  All gradients are analytic and are
checked against central finite differences in the test suite.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .files import read_tsv, write_tsv

OBJECTIVE_RETRIEVAL = "retrieval"
OBJECTIVE_POINTWISE = "rerank_pointwise"
OBJECTIVE_CIRCLE = "rerank_circle"

_MASK = -1e30


class TrainingDiverged(RuntimeError):
    """Raised when a loss turns non-finite mid-run."""


@dataclass(frozen=True)
class RetrievalExample:
    anchor: str
    positive: str
    importance: float


@dataclass(frozen=True)
class RetrievalBatch:
    """Anchor/positive pairs sharing one in-batch negative pool.

    ``excluded`` lists (anchor index, positive index) entries dropped from
    that anchor's softmax denominator: accidental positives, i.e. in-batch
    candidates that are co-purchased with (or equal to) the anchor.  The
    diagonal is never excluded.  ``hard_negatives`` optionally adds
    per-anchor extra negatives to the pool (the ANCE augmentation).
    """

    anchors: tuple[str, ...]
    positives: tuple[str, ...]
    importances: tuple[float, ...]
    temperature: float
    excluded: frozenset[tuple[int, int]] = frozenset()
    hard_negatives: tuple[tuple[str, ...], ...] = ()

    def __post_init__(self) -> None:
        n = len(self.anchors)
        if n < 1:
            raise ValueError("retrieval batch must contain at least one pair")
        if len(self.positives) != n or len(self.importances) != n:
            raise ValueError("anchors, positives and importances must align")
        if self.temperature <= 0.0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if self.hard_negatives and len(self.hard_negatives) != n:
            raise ValueError("hard_negatives must align with anchors")
        if any(not math.isfinite(i) for i in self.importances):
            raise ValueError("importances must be finite")
        if any(k == j for k, j in self.excluded):
            raise ValueError("cannot exclude an anchor's own positive")


@dataclass(frozen=True)
class RerankBatch:
    """One anchor with its positive set and hard-negative set."""

    anchor: str
    positives: tuple[tuple[str, float], ...]
    hard_negatives: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.positives:
            raise ValueError("rerank batch needs at least one positive")


def _zero_grads(model) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(p) for name, p in model.parameters().items()}


def _add_grads(total: dict[str, np.ndarray], part: Mapping[str, np.ndarray]) -> None:
    for name, grad in part.items():
        total[name] += grad


def loss_retrieval(
    model, batch: RetrievalBatch, compute_grad: bool = True
) -> tuple[float, dict[str, np.ndarray] | None]:
    """Importance-weighted infoNCE with in-batch (plus hard) negatives.

    L = -(1/N) sum_k I_k * log softmax_j(s(a_k, p_j)/tau) at j = k, with
    excluded j masked out of the denominator.
    """
    n = len(batch.anchors)
    anchors, a_back = model.embed_many_with_backward(batch.anchors)
    positives, p_back = model.embed_many_with_backward(batch.positives)

    flat_negs: list[str] = []
    neg_owner: list[int] = []
    for k, negs in enumerate(batch.hard_negatives):
        for text in negs:
            flat_negs.append(text)
            neg_owner.append(k)
    has_negs = bool(flat_negs)
    if has_negs:
        negatives, h_back = model.embed_many_with_backward(flat_negs)
        owner = np.array(neg_owner)

    tau = batch.temperature
    z = (anchors @ positives.T) / tau
    for k, j in batch.excluded:
        z[k, j] = _MASK
    if has_negs:
        zh = (anchors @ negatives.T) / tau
        # Each hard negative only enters its own anchor's denominator.
        mask = owner[None, :] != np.arange(n)[:, None]
        zh[mask] = _MASK
        full = np.concatenate([z, zh], axis=1)
    else:
        full = z

    row_max = full.max(axis=1, keepdims=True)
    exp_shift = np.exp(full - row_max)
    denom = exp_shift.sum(axis=1)
    lse = row_max[:, 0] + np.log(denom)
    diag = np.diag(z)
    weights = np.array(batch.importances)
    loss = float(np.sum(weights * (lse - diag)) / n)

    if not compute_grad:
        return loss, None

    probs = exp_shift / denom[:, None]
    coeff = (weights / n)[:, None]
    g_full = coeff * probs
    g_z = g_full[:, :n].copy()
    g_z[np.arange(n), np.arange(n)] -= coeff[:, 0]
    for k, j in batch.excluded:
        g_z[k, j] = 0.0

    grad_anchors = (g_z @ positives) / tau
    grad_positives = (g_z.T @ anchors) / tau
    if has_negs:
        g_zh = g_full[:, n:]
        g_zh = np.where(owner[None, :] == np.arange(n)[:, None], g_zh, 0.0)
        grad_anchors += (g_zh @ negatives) / tau
        grad_negatives = (g_zh.T @ anchors) / tau

    grads = _zero_grads(model)
    _add_grads(grads, a_back(grad_anchors))
    _add_grads(grads, p_back(grad_positives))
    if has_negs:
        _add_grads(grads, h_back(grad_negatives))
    return loss, grads


def loss_rerank_pointwise(
    model,
    pairs: Sequence[tuple[str, str, float]],
    compute_grad: bool = True,
) -> tuple[float, dict[str, np.ndarray] | None]:
    """MSE between sigmoid(cross-encoder score) and the directed target."""
    if not pairs:
        raise ValueError("pointwise loss needs at least one pair")
    targets = np.array([t for _, _, t in pairs])
    if np.any((targets < 0.0) | (targets > 1.0)):
        raise ValueError("pointwise targets must lie in [0, 1]")
    scores, backward = model.score_many_with_backward([(s, t) for s, t, _ in pairs])
    squashed = 1.0 / (1.0 + np.exp(-scores))
    residual = squashed - targets
    loss = float(np.mean(residual**2))
    if not compute_grad:
        return loss, None
    g_scores = 2.0 * residual * squashed * (1.0 - squashed) / len(pairs)
    return loss, backward(g_scores)


def _circle_terms(scores_pos: np.ndarray, scores_neg: np.ndarray) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Stable loss softplus(LSE(s_n) + LSE(-s_p)) and its score gradients."""
    lse_neg = float(np.logaddexp.reduce(scores_neg))
    lse_posneg = float(np.logaddexp.reduce(-scores_pos))
    margin = lse_neg + lse_posneg
    loss = float(np.logaddexp(0.0, margin))
    sig = 1.0 / (1.0 + np.exp(-margin))
    soft_neg = np.exp(scores_neg - lse_neg)
    soft_pos = np.exp(-scores_pos - lse_posneg)
    return loss, sig, sig * soft_neg, -sig * soft_pos


def loss_rerank_circle(
    model, batch: RerankBatch, compute_grad: bool = True
) -> tuple[float, dict[str, np.ndarray] | None]:
    """Pairwise circle loss for one anchor; zero when no hard negatives."""
    loss, grads = loss_rerank_circle_many(model, [batch], compute_grad)
    return loss, grads


def loss_rerank_circle_many(
    model, batches: Sequence[RerankBatch], compute_grad: bool = True
) -> tuple[float, dict[str, np.ndarray] | None]:
    """Mean circle loss over several anchors, scored in one encoder call."""
    if not batches:
        raise ValueError("circle loss needs at least one batch")
    pair_list: list[tuple[str, str]] = []
    spans: list[tuple[int, int, int] | None] = []
    for batch in batches:
        if not batch.hard_negatives:
            spans.append(None)
            continue
        start = len(pair_list)
        pair_list.extend((batch.anchor, text) for text, _ in batch.positives)
        mid = len(pair_list)
        pair_list.extend((batch.anchor, text) for text in batch.hard_negatives)
        spans.append((start, mid, len(pair_list)))

    if not pair_list:
        return 0.0, (_zero_grads(model) if compute_grad else None)

    scores, backward = model.score_many_with_backward(pair_list)
    g_scores = np.zeros_like(scores)
    total = 0.0
    for span in spans:
        if span is None:
            continue
        start, mid, end = span
        loss, _, g_neg, g_pos = _circle_terms(scores[start:mid], scores[mid:end])
        total += loss
        g_scores[start:mid] = g_pos
        g_scores[mid:end] = g_neg
    mean_loss = total / len(batches)
    if not compute_grad:
        return mean_loss, None
    return mean_loss, backward(g_scores / len(batches))


@dataclass
class TrainConfig:
    objective: str
    epochs: int = 4
    batch_size: int = 256
    learning_rate: float = 1e-3
    temperature: float = 0.05
    hard_negative_cap: int = 8
    seed: int = 0


class AdamOptimizer:
    """Per-parameter adaptive moments; lr 0 leaves parameters untouched."""

    def __init__(
        self,
        shapes: Mapping[str, tuple],
        learning_rate: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.first = {name: np.zeros(shape) for name, shape in shapes.items()}
        self.second = {name: np.zeros(shape) for name, shape in shapes.items()}

    def step(
        self, params: Mapping[str, np.ndarray], grads: Mapping[str, np.ndarray]
    ) -> dict[str, np.ndarray]:
        self.step_count += 1
        correct1 = 1.0 - self.beta1**self.step_count
        correct2 = 1.0 - self.beta2**self.step_count
        updated = {}
        for name, value in params.items():
            grad = grads[name]
            m = self.first[name]
            v = self.second[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            step = self.learning_rate * (m / correct1) / (np.sqrt(v / correct2) + self.eps)
            updated[name] = value - step
        return updated


@dataclass
class TrainResult:
    """Per-epoch (train loss, validation loss) trace; model is updated in place."""

    trace: list[tuple[int, float, float | None]] = field(default_factory=list)

    @property
    def final_train_loss(self) -> float:
        return self.trace[-1][1]


def canonical_pair(a: str, b: str) -> tuple[str, str]:
    """The order-free key of a query pair: its two texts, smaller first."""
    return (a, b) if a <= b else (b, a)


def build_retrieval_batches(
    examples: Sequence[RetrievalExample],
    batch_size: int,
    temperature: float,
    excluded_pairs: frozenset[tuple[str, str]] = frozenset(),
    hard_negatives: Mapping[str, Sequence[str]] | None = None,
    hard_negative_cap: int = 8,
    rng: random.Random | None = None,
) -> list[RetrievalBatch]:
    """Chunk examples into batches, marking accidental in-batch positives.

    Candidate j is excluded from anchor k's denominator when (anchor_k,
    positive_j) is in ``excluded_pairs`` (canonical text order) or the two
    texts are equal; the anchor's own positive always stays.
    """
    ordered = list(examples)
    if rng is not None:
        rng.shuffle(ordered)
    batches = []
    for start in range(0, len(ordered), batch_size):
        chunk = ordered[start:start + batch_size]
        anchors = tuple(e.anchor for e in chunk)
        positives = tuple(e.positive for e in chunk)
        excluded = set()
        for k, anchor in enumerate(anchors):
            for j, positive in enumerate(positives):
                if j == k:
                    continue
                if positive == anchor or canonical_pair(anchor, positive) in excluded_pairs:
                    excluded.add((k, j))
        negs: tuple[tuple[str, ...], ...] = ()
        if hard_negatives is not None:
            rows = []
            for anchor in anchors:
                mined = hard_negatives.get(anchor, ())
                if rng is not None and len(mined) > hard_negative_cap:
                    # Sample the cap from the whole mined list instead of
                    # slicing its head, so repeated occurrences of an
                    # anchor spread gradient pressure over every retrieved
                    # negative rather than hammering the top few.
                    rows.append(tuple(rng.sample(list(mined), hard_negative_cap)))
                else:
                    rows.append(tuple(mined[:hard_negative_cap]))
            negs = tuple(rows)
            if not any(negs):
                negs = ()
        batches.append(
            RetrievalBatch(
                anchors=anchors,
                positives=positives,
                importances=tuple(e.importance for e in chunk),
                temperature=temperature,
                excluded=frozenset(excluded),
                hard_negatives=negs,
            )
        )
    return batches


def _epoch_pass(model, optimizer, batches, loss_fn, train: bool, context: str) -> float:
    total = 0.0
    count = 0
    for batch in batches:
        loss, grads = loss_fn(model, batch, train)
        if not math.isfinite(loss):
            raise TrainingDiverged(f"{context}: loss became non-finite ({loss})")
        total += loss
        count += 1
        if train:
            model.set_parameters(optimizer.step(model.parameters(), grads))
    return total / max(count, 1)


def train(
    model,
    train_data: Sequence,
    val_data: Sequence,
    config: TrainConfig,
    excluded_pairs: frozenset[tuple[str, str]] = frozenset(),
    hard_negatives: Mapping[str, Sequence[str]] | None = None,
) -> TrainResult:
    """Run the configured objective; deterministic for a fixed seed.

    ``train_data`` is a list of RetrievalExample (retrieval), (source,
    target, value) triples (pointwise), or RerankBatch (circle);
    ``val_data`` may be empty.
    """
    if not train_data:
        raise ValueError("training data must be non-empty")
    rng = random.Random(config.seed)
    shapes = {name: p.shape for name, p in model.parameters().items()}
    optimizer = AdamOptimizer(shapes, config.learning_rate)
    result = TrainResult()

    for epoch in range(1, config.epochs + 1):
        context = f"objective={config.objective} epoch={epoch}"
        if config.objective == OBJECTIVE_RETRIEVAL:
            batches = build_retrieval_batches(
                train_data,
                config.batch_size,
                config.temperature,
                excluded_pairs,
                hard_negatives,
                config.hard_negative_cap,
                rng,
            )
            val_batches = (
                build_retrieval_batches(
                    val_data,
                    config.batch_size,
                    config.temperature,
                    excluded_pairs,
                    hard_negatives,
                    config.hard_negative_cap,
                )
                if val_data
                else []
            )
            loss_fn = loss_retrieval
        elif config.objective == OBJECTIVE_POINTWISE:
            shuffled = list(train_data)
            rng.shuffle(shuffled)
            batches = [
                shuffled[i:i + config.batch_size]
                for i in range(0, len(shuffled), config.batch_size)
            ]
            val_batches = [val_data] if val_data else []
            loss_fn = loss_rerank_pointwise
        elif config.objective == OBJECTIVE_CIRCLE:
            shuffled = list(train_data)
            rng.shuffle(shuffled)
            batches = [
                shuffled[i:i + config.batch_size]
                for i in range(0, len(shuffled), config.batch_size)
            ]
            val_batches = [val_data] if val_data else []
            loss_fn = loss_rerank_circle_many
        else:
            raise ValueError(f"unknown objective {config.objective!r}")

        train_loss = _epoch_pass(model, optimizer, batches, loss_fn, True, context)
        val_loss = None
        if val_batches:
            val_loss = _epoch_pass(model, optimizer, val_batches, loss_fn, False, context)
        result.trace.append((epoch, train_loss, val_loss))
    return result


TRACE_KIND = "loss-trace"


def save_trace(path, result: TrainResult, **attrs) -> None:
    rows = (
        (epoch, f"{train_loss:.8f}", "" if val_loss is None else f"{val_loss:.8f}")
        for epoch, train_loss, val_loss in result.trace
    )
    write_tsv(path, TRACE_KIND, rows, columns=("epoch", "train_loss", "val_loss"), **attrs)


def load_trace(path) -> TrainResult:
    _, rows = read_tsv(path, TRACE_KIND, has_columns=True)
    result = TrainResult()
    for epoch, train_loss, val_loss in rows:
        result.trace.append(
            (int(epoch), float(train_loss), float(val_loss) if val_loss else None)
        )
    return result
