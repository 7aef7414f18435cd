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
import threading
from dataclasses import dataclass, field
from typing import AbstractSet, Mapping, Sequence

import numpy as np

from .files import write_tsv

OBJECTIVE_RETRIEVAL = "retrieval"
OBJECTIVE_POINTWISE = "rerank_pointwise"
OBJECTIVE_CIRCLE = "rerank_circle"

_MASK = -1e30

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Rows per block of an Adam step: the six arrays of a 64-wide float32
# block take 1.5 MB, which fits a 2 MB L2 cache.  On the cross-encoder's
# float32 shapes a step took 7.3-8.4 ms with 1024 rows and 8.3-10.8 ms
# with 512; 2048 rows (3 MB) measured 6.2-8.6 ms.
ADAM_BLOCK_ROWS = 1024


class TrainingDiverged(RuntimeError):
    """Raised when a loss turns non-finite mid-run."""


@dataclass(frozen=True)
class RetrievalExample:
    anchor: str
    positive: str
    importance: float


@dataclass(frozen=True, eq=False)
class RetrievalBatch:
    """Anchor/positive pairs sharing one in-batch negative pool.

    ``excluded`` is a boolean (anchors, positives) mask: a true
    ``[k, j]`` drops positive j from anchor k's softmax denominator, as an
    accidental positive, i.e. an in-batch candidate that is co-purchased
    with (or equal to) the anchor.  The diagonal is never excluded; None
    excludes nothing.  ``hard_negatives`` optionally adds per-anchor extra
    negatives to the pool (the ANCE augmentation).
    """

    anchors: tuple[str, ...]
    positives: tuple[str, ...]
    importances: tuple[float, ...]
    temperature: float
    excluded: np.ndarray | None = None
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
        if self.excluded is None:
            object.__setattr__(self, "excluded", np.zeros((n, n), dtype=bool))
        if self.excluded.dtype != bool or self.excluded.shape != (n, n):
            raise ValueError(f"excluded must be a boolean ({n}, {n}) mask")
        if self.excluded.diagonal().any():
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


def loss_retrieval(
    model, batch: RetrievalBatch, compute_grad: bool = True
) -> tuple[float, dict[str, np.ndarray] | None]:
    """Importance-weighted infoNCE with in-batch (plus hard) negatives.

    L = -(1/N) sum_k I_k * log softmax_j(s(a_k, p_j)/tau) at j = k, with
    excluded j masked out of the denominator.  Hard negatives form one
    flat list; each enters only its ``owner`` anchor's softmax, so its
    logit is one row-wise dot.  Anchors, positives and negatives are
    embedded and backpropagated as one stacked batch.
    """
    n = len(batch.anchors)
    owner = np.repeat(np.arange(n), [len(negs) for negs in batch.hard_negatives] or 0)
    flat_negs = [text for negs in batch.hard_negatives for text in negs]
    units, backward = model.embed_many_with_backward(
        [*batch.anchors, *batch.positives, *flat_negs]
    )
    anchors, positives, negatives = units[:n], units[n:2 * n], units[2 * n:]
    owned = anchors[owner]

    # Everything below takes the embeddings' dtype; bincount sums in float64.
    tau = batch.temperature
    z = (anchors @ positives.T) / tau
    z[batch.excluded] = _MASK
    zh = np.einsum("ij,ij->i", owned, negatives) / tau

    row_max = z.max(axis=1)
    np.maximum.at(row_max, owner, zh)
    exp_z = np.exp(z - row_max[:, None])
    exp_h = np.exp(zh - row_max[owner])
    hard_sums = np.bincount(owner, weights=exp_h, minlength=n).astype(units.dtype, copy=False)
    denom = exp_z.sum(axis=1) + hard_sums
    lse = row_max + np.log(denom)
    weights = np.array(batch.importances, dtype=units.dtype)
    loss = float(np.sum(weights * (lse - np.diag(z))) / n)

    if not compute_grad:
        return loss, None

    # A masked logit's exp is exactly 0, so excluded cells get no gradient.
    coeff = weights / n
    g_z = coeff[:, None] * (exp_z / denom[:, None])
    g_z[np.arange(n), np.arange(n)] -= coeff
    g_h = coeff[owner] * (exp_h / denom[owner])

    grad_hard = np.zeros_like(anchors)
    np.add.at(grad_hard, owner, g_h[:, None] * negatives)
    grad_units = np.empty_like(units)
    grad_units[:n] = (g_z @ positives) / tau + grad_hard / tau
    grad_units[n:2 * n] = (g_z.T @ anchors) / tau
    grad_units[2 * n:] = (g_h[:, None] * owned) / tau
    return loss, backward(grad_units)


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


def loss_rerank_circle_many(
    model, batches: Sequence[RerankBatch], compute_grad: bool = True
) -> tuple[float, dict[str, np.ndarray] | None]:
    """Mean pairwise circle loss over several anchors, scored in one
    encoder call; an anchor without hard negatives contributes zero."""
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
    """Per-parameter adaptive moments with decays ``ADAM_BETA1`` and
    ``ADAM_BETA2``, applied to the parameter arrays in place; lr 0 leaves
    parameters untouched.

    It is built from the parameter arrays, and each parameter's moments
    and scratch take that parameter's dtype, so a float32 model trains in
    float32 throughout.  The hyper-parameters and bias corrections are
    Python floats, which numpy applies in the array's dtype.

    A step cuts every parameter into blocks of ``ADAM_BLOCK_ROWS`` rows
    and runs the whole update on one block before the next, in the
    operation order of ``value -= lr * (m / c1) / (sqrt(v / c2) + eps)``,
    so a block's arrays stay in cache across the update's passes.  The
    blocks are split in two halves of about equal size: one helper thread,
    started and joined within the step, updates the second half while the
    calling thread updates the first, each in two scratch arrays of its
    own sized to one block; numpy releases the interpreter lock inside
    each pass.  Every operation is elementwise and the blocks cover
    disjoint rows, so the step rounds exactly like the whole-array
    expression; an error in either half is raised from ``step``.
    """

    def __init__(self, params: Mapping[str, np.ndarray], learning_rate: float) -> None:
        self.learning_rate = learning_rate
        self.step_count = 0
        self.first = {name: np.zeros(p.shape, p.dtype) for name, p in params.items()}
        self.second = {name: np.zeros(p.shape, p.dtype) for name, p in params.items()}
        blocks = []
        for name, p in params.items():
            rows = p.shape[0] if p.shape else 1
            row_bytes = math.prod(p.shape[1:]) * p.itemsize
            for start in range(0, rows, ADAM_BLOCK_ROWS):
                # The last block's slice runs past the end, so a gradient
                # with too many rows fails there, as on the whole array.
                block = slice(start, start + ADAM_BLOCK_ROWS)
                blocks.append((name, block, (min(rows, block.stop) - start) * row_bytes))
        half = sum(size for _, _, size in blocks) / 2
        split, done = 0, 0
        while split < len(blocks) and done < half:
            done += blocks[split][2]
            split += 1
        # Scratch as bytes, viewed in each block's dtype.
        largest = max((size for _, _, size in blocks), default=0)
        self._halves = tuple(
            (
                [(name, block) for name, block, _ in part],
                np.empty(largest, dtype=np.uint8),
                np.empty(largest, dtype=np.uint8),
            )
            for part in (blocks[:split], blocks[split:])
        )

    def step(
        self, params: Mapping[str, np.ndarray], grads: Mapping[str, np.ndarray]
    ) -> None:
        self.step_count += 1
        correct1 = 1.0 - ADAM_BETA1**self.step_count
        correct2 = 1.0 - ADAM_BETA2**self.step_count
        own, other = self._halves
        errors: list[Exception] = []

        def update_other() -> None:
            try:
                self._update(*other, params, grads, correct1, correct2)
            except Exception as exc:  # raised from step, after the join
                errors.append(exc)

        helper = threading.Thread(target=update_other)
        helper.start()
        try:
            self._update(*own, params, grads, correct1, correct2)
        finally:
            helper.join()
        if errors:
            raise errors[0]

    def _update(self, blocks, scratch_a, scratch_b, params, grads, correct1, correct2) -> None:
        for name, rows in blocks:
            value = np.atleast_1d(params[name])[rows]
            grad = np.atleast_1d(grads[name])[rows]
            m = np.atleast_1d(self.first[name])[rows]
            v = np.atleast_1d(self.second[name])[rows]
            a = scratch_a[: m.nbytes].view(m.dtype).reshape(m.shape)
            b = scratch_b[: m.nbytes].view(m.dtype).reshape(m.shape)
            m *= ADAM_BETA1
            m += np.multiply(1.0 - ADAM_BETA1, grad, out=a)
            v *= ADAM_BETA2
            np.square(grad, out=a)
            v += np.multiply(1.0 - ADAM_BETA2, a, out=a)
            np.divide(m, correct1, out=a)
            np.multiply(self.learning_rate, a, out=a)
            np.divide(v, correct2, out=b)
            np.sqrt(b, out=b)
            b += ADAM_EPS
            value -= np.divide(a, b, out=a)


@dataclass
class TrainResult:
    """Per-epoch (train loss, validation loss) trace; model is updated in place."""

    trace: list[tuple[int, float, float | None]] = field(default_factory=list)


def build_retrieval_batches(
    examples: Sequence[RetrievalExample],
    batch_size: int,
    temperature: float,
    kin: Mapping[str, AbstractSet[str]] | None = None,
    hard_negatives: Mapping[str, Sequence[str]] | None = None,
    hard_negative_cap: int = 8,
    rng: random.Random | None = None,
) -> list[RetrievalBatch]:
    """Chunk examples into batches, marking accidental in-batch positives.

    Candidate j is excluded from anchor k's denominator when positive_j is
    the anchor's own text or one of its co-purchase kin (``kin`` maps each
    query to its partners, in both directions); the anchor's own positive
    always stays.
    """
    kin = kin or {}
    ordered = list(examples)
    if rng is not None:
        rng.shuffle(ordered)
    batches = []
    for start in range(0, len(ordered), batch_size):
        chunk = ordered[start:start + batch_size]
        anchors = tuple(e.anchor for e in chunk)
        positives = tuple(e.positive for e in chunk)
        # hit[k, t]: distinct positive text t is the anchor's own text or
        # its kin; the mask reads each positive's text column.
        text_of = {text: t for t, text in enumerate(dict.fromkeys(positives))}
        hit_rows: list[int] = []
        hit_cols: list[int] = []
        for k, anchor in enumerate(anchors):
            texts = text_of.keys() & kin.get(anchor, ())
            if anchor in text_of:
                texts.add(anchor)
            hit_rows.extend([k] * len(texts))
            hit_cols.extend(map(text_of.__getitem__, texts))
        hit = np.zeros((len(anchors), len(text_of)), dtype=bool)
        hit[hit_rows, hit_cols] = True
        excluded = hit[:, [text_of[p] for p in positives]]
        np.fill_diagonal(excluded, False)
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
                    rows.append(tuple(rng.sample(mined, hard_negative_cap)))
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
                excluded=excluded,
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
            optimizer.step(model.parameters(), grads)
    return total / max(count, 1)


def train(
    model,
    train_data: Sequence,
    val_data: Sequence,
    config: TrainConfig,
    kin: Mapping[str, AbstractSet[str]] | None = None,
    hard_negatives: Mapping[str, Sequence[str]] | None = None,
) -> TrainResult:
    """Run the configured objective; deterministic for a fixed seed.

    ``train_data`` is a list of RetrievalExample (retrieval), (source,
    target, value) triples (pointwise), or RerankBatch (circle);
    ``val_data`` may be empty.  ``kin`` and ``hard_negatives`` shape the
    retrieval batches only (see ``build_retrieval_batches``).
    """
    if not train_data:
        raise ValueError("training data must be non-empty")
    rng = random.Random(config.seed)
    optimizer = AdamOptimizer(model.parameters(), config.learning_rate)
    result = TrainResult()
    if config.objective == OBJECTIVE_RETRIEVAL:
        loss_fn = loss_retrieval
    elif config.objective == OBJECTIVE_POINTWISE:
        loss_fn = loss_rerank_pointwise
    elif config.objective == OBJECTIVE_CIRCLE:
        loss_fn = loss_rerank_circle_many
    else:
        raise ValueError(f"unknown objective {config.objective!r}")
    retrieval = config.objective == OBJECTIVE_RETRIEVAL
    batch_args = (
        config.batch_size,
        config.temperature,
        kin,
        hard_negatives,
        config.hard_negative_cap,
    )
    # Validation batches draw nothing from the rng, so one build serves every epoch.
    if not val_data:
        val_batches = []
    elif retrieval:
        val_batches = build_retrieval_batches(val_data, *batch_args)
    else:
        val_batches = [val_data]

    for epoch in range(1, config.epochs + 1):
        context = f"objective={config.objective} epoch={epoch}"
        if retrieval:
            batches = build_retrieval_batches(train_data, *batch_args, rng)
        else:
            shuffled = list(train_data)
            rng.shuffle(shuffled)
            batches = [
                shuffled[i:i + config.batch_size]
                for i in range(0, len(shuffled), config.batch_size)
            ]
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
