"""Loss values, analytic gradients, batching, the training driver."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qreform.corpus import canonical_pair
from qreform.encoders import BiEncoderModel, CrossEncoderModel, Featurizer
from qreform.files import read_tsv
from qreform.training import (
    OBJECTIVE_CIRCLE,
    OBJECTIVE_POINTWISE,
    OBJECTIVE_RETRIEVAL,
    TRACE_KIND,
    AdamOptimizer,
    RerankBatch,
    RetrievalBatch,
    RetrievalExample,
    TrainConfig,
    build_retrieval_batches,
    loss_rerank_circle_many,
    loss_rerank_pointwise,
    loss_retrieval,
    save_trace,
    train,
)
from tests.gradcheck import finite_difference_grads, max_relative_error


def bi_model(seed=0):
    return BiEncoderModel.initialize(1 << 7, 6, seed=seed)


def cross_model(seed=0):
    return CrossEncoderModel.initialize(1 << 7, (8, 4), seed=seed)


# --- weighted infoNCE values ---


def test_infonce_uniform_batch_is_ln_n():
    batch = RetrievalBatch(
        anchors=("same", "same", "same", "same"),
        positives=("same", "same", "same", "same"),
        importances=(1.0, 1.0, 1.0, 1.0),
        temperature=0.05,
    )
    loss, _ = loss_retrieval(bi_model(), batch)
    assert loss == pytest.approx(math.log(4), abs=1e-12)


def test_infonce_zero_importances_annihilate():
    batch = RetrievalBatch(
        anchors=("a b", "c d"),
        positives=("a c", "c e"),
        importances=(0.0, 0.0),
        temperature=0.05,
    )
    loss, grads = loss_retrieval(bi_model(), batch)
    assert loss == 0.0
    assert all(np.all(g == 0.0) for g in grads.values())


def test_infonce_linear_in_importances():
    kwargs = dict(
        anchors=("a b", "c d", "e f"),
        positives=("a c", "c e", "e g"),
        temperature=0.1,
    )
    model = bi_model()
    base, _ = loss_retrieval(
        model, RetrievalBatch(importances=(0.2, 0.5, 0.9), **kwargs)
    )
    scaled, _ = loss_retrieval(
        model, RetrievalBatch(importances=(0.4, 1.0, 1.8), **kwargs)
    )
    assert scaled == pytest.approx(2.0 * base, rel=1e-12)


def test_infonce_exclusion_masks_accidental_positive():
    # Anchor 0's pool contains positive 1, an accidental positive; once
    # excluded, the loss must equal the two-candidate computation by hand.
    model = bi_model()
    anchors = ("a b", "zz")
    positives = ("a c", "a b x")
    masked, _ = loss_retrieval(
        model,
        RetrievalBatch(
            anchors=anchors,
            positives=positives,
            importances=(1.0, 0.0),
            temperature=0.07,
            excluded=frozenset({(0, 1)}),
        ),
    )
    z00 = float(model.embed(anchors[0]) @ model.embed(positives[0])) / 0.07
    expected = math.log(math.exp(z00)) - z00  # only one candidate remains
    assert masked == pytest.approx(expected, abs=1e-12)


def test_infonce_hard_negatives_increase_pool():
    model = bi_model()
    base_batch = RetrievalBatch(
        anchors=("a b",), positives=("a c",), importances=(1.0,), temperature=0.05
    )
    base, _ = loss_retrieval(model, base_batch)
    assert base == pytest.approx(0.0, abs=1e-12)  # single candidate -> ln 1
    augmented = RetrievalBatch(
        anchors=("a b",),
        positives=("a c",),
        importances=(1.0,),
        temperature=0.05,
        hard_negatives=(("a b d", "a q"),),
    )
    loss, _ = loss_retrieval(model, augmented)
    assert loss > 0.0


def reference_loss_retrieval(model, batch):
    """Reference: every hard negative as a column of one dense block,
    masked out of every row but its owner's, with one embed and one
    backward per part."""
    n = len(batch.anchors)
    anchors, a_back = model.embed_many_with_backward(batch.anchors)
    positives, p_back = model.embed_many_with_backward(batch.positives)
    flat_negs = [text for negs in batch.hard_negatives for text in negs]
    owner = np.array([k for k, negs in enumerate(batch.hard_negatives) for _ in negs])
    has_negs = bool(flat_negs)
    if has_negs:
        negatives, h_back = model.embed_many_with_backward(flat_negs)

    tau = batch.temperature
    z = (anchors @ positives.T) / tau
    for k, j in batch.excluded:
        z[k, j] = -1e30
    if has_negs:
        zh = (anchors @ negatives.T) / tau
        mask = owner[None, :] != np.arange(n)[:, None]
        zh[mask] = -1e30
        full = np.concatenate([z, zh], axis=1)
    else:
        full = z

    row_max = full.max(axis=1, keepdims=True)
    exp_shift = np.exp(full - row_max)
    denom = exp_shift.sum(axis=1)
    lse = row_max[:, 0] + np.log(denom)
    weights = np.array(batch.importances)
    loss = float(np.sum(weights * (lse - np.diag(z))) / n)

    probs = exp_shift / denom[:, None]
    coeff = (weights / n)[:, None]
    g_full = coeff * probs
    g_z = g_full[:, :n].copy()
    g_z[np.arange(n), np.arange(n)] -= coeff[:, 0]
    for k, j in batch.excluded:
        g_z[k, j] = 0.0

    grad_anchors = (g_z @ positives) / tau
    grads = p_back((g_z.T @ anchors) / tau)
    if has_negs:
        g_zh = np.where(mask, 0.0, g_full[:, n:])
        grad_anchors += (g_zh @ negatives) / tau
        grads["projection"] += h_back((g_zh.T @ anchors) / tau)["projection"]
    grads["projection"] += a_back(grad_anchors)["projection"]
    return loss, grads


# Few texts, so anchors, positives and negatives repeat each other.
RETRIEVAL_TEXTS = st.sampled_from(["a b", "c d", "a c", "e f", "a b d", "x y", "zz"])


@st.composite
def retrieval_batches(draw, cap=3):
    n = draw(st.integers(1, 5))
    anchors = draw(st.lists(RETRIEVAL_TEXTS, min_size=n, max_size=n))
    positives = draw(st.lists(RETRIEVAL_TEXTS, min_size=n, max_size=n))
    off_diagonal = [(k, j) for k in range(n) for j in range(n) if k != j]
    excluded = draw(st.sets(st.sampled_from(off_diagonal))) if off_diagonal else set()
    hard = ()
    if draw(st.booleans()):
        hard = [draw(st.lists(RETRIEVAL_TEXTS, max_size=cap)) for _ in range(n)]
        # The anchor's own text has the largest logit any candidate can have.
        leader = draw(st.integers(0, n - 1))
        if hard[leader] and draw(st.booleans()):
            hard[leader][0] = anchors[leader]
        hard = tuple(tuple(negs) for negs in hard)
    return RetrievalBatch(
        anchors=tuple(anchors),
        positives=tuple(positives),
        importances=tuple(draw(st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n))),
        temperature=draw(st.floats(0.02, 1.0)),
        excluded=frozenset(excluded),
        hard_negatives=hard,
    )


@settings(max_examples=150, deadline=None)
@given(retrieval_batches(), st.integers(0, 3))
def test_retrieval_loss_matches_masked_dense_reference(batch, seed):
    model = bi_model(seed)
    loss, grads = loss_retrieval(model, batch)
    want_loss, want_grads = reference_loss_retrieval(model, batch)
    assert loss == pytest.approx(want_loss, rel=1e-12, abs=1e-300)
    assert loss_retrieval(model, batch, compute_grad=False) == (loss, None)
    # Gradients that cancel to zero keep rounding noise of the size of
    # the logit gradients, sum(I) / (N tau), so that bounds the scale.
    logit_scale = sum(batch.importances) / (len(batch.anchors) * batch.temperature)
    for name, want in want_grads.items():
        scale = max(float(np.max(np.abs(want))), logit_scale)
        assert np.max(np.abs(grads[name] - want)) <= 1e-12 * scale


def test_retrieval_loss_featurizes_once_per_call(monkeypatch):
    calls = []
    matrix = Featurizer.matrix

    def counted(self, texts):
        calls.append(list(texts))
        return matrix(self, texts)

    monkeypatch.setattr(Featurizer, "matrix", counted)
    batch = RetrievalBatch(
        anchors=("a b", "c d", "e f"),
        positives=("a c", "c e", "a b"),
        importances=(0.9, 0.4, 0.7),
        temperature=0.08,
        hard_negatives=(("x y",), (), ("z w", "c d")),
    )
    model = bi_model()
    loss_retrieval(model, batch)
    loss_retrieval(model, batch, compute_grad=False)
    # One lookup per call, in the order that keeps featurizer row ids.
    stacked = [*batch.anchors, *batch.positives, "x y", "z w", "c d"]
    assert calls == [stacked, stacked]


# --- pointwise regression ---


def test_pointwise_loss_is_sigmoid_mse():
    model = cross_model()
    pairs = [("a b", "c d", 0.3), ("c d", "a b", 0.9)]
    loss, _ = loss_rerank_pointwise(model, pairs)
    scores = model.score_many([(s, t) for s, t, _ in pairs])
    sig = 1.0 / (1.0 + np.exp(-scores))
    expected = np.mean((sig - np.array([0.3, 0.9])) ** 2)
    assert loss == pytest.approx(float(expected), abs=1e-12)


def test_pointwise_rejects_bad_targets():
    with pytest.raises(ValueError):
        loss_rerank_pointwise(cross_model(), [("a", "b", 1.5)])


# --- circle loss ---


def test_circle_no_negatives_is_zero():
    model = cross_model()
    batch = RerankBatch("q", positives=(("p", 0.8),))
    loss, grads = loss_rerank_circle_many(model, [batch])
    assert loss == 0.0
    assert all(np.all(g == 0.0) for g in grads.values())


def test_circle_single_pair_is_softplus_margin():
    model = cross_model()
    batch = RerankBatch("q x", positives=(("p y", 0.8),), hard_negatives=("n z",))
    loss, _ = loss_rerank_circle_many(model, [batch])
    s_p = model.score_many([("q x", "p y")])[0]
    s_n = model.score_many([("q x", "n z")])[0]
    assert loss == pytest.approx(math.log1p(math.exp(s_n - s_p)), abs=1e-12)


def test_circle_equal_scores_is_ln_2():
    model = cross_model()
    batch = RerankBatch("q x", positives=(("same", 1.0),), hard_negatives=("same",))
    loss, _ = loss_rerank_circle_many(model, [batch])
    assert loss == pytest.approx(math.log(2), abs=1e-12)


def test_circle_many_averages_batches():
    model = cross_model()
    b1 = RerankBatch("q x", positives=(("p y", 0.8),), hard_negatives=("n z",))
    b2 = RerankBatch("q w", positives=(("p v", 0.5),))  # no negatives -> 0
    l1, _ = loss_rerank_circle_many(model, [b1])
    both, _ = loss_rerank_circle_many(model, [b1, b2])
    assert both == pytest.approx(l1 / 2.0, abs=1e-12)


def test_circle_monotone_in_positive_score():
    # Raising the positive's score (via a more similar surface form) while
    # keeping the negative fixed must not increase the loss.
    model = cross_model()
    anchor = "red mask sheet"
    near = RerankBatch(anchor, positives=((anchor, 1.0),), hard_negatives=("qq ww",))
    far = RerankBatch(anchor, positives=(("zz yy", 1.0),), hard_negatives=("qq ww",))
    loss_near, _ = loss_rerank_circle_many(model, [near])
    loss_far, _ = loss_rerank_circle_many(model, [far])
    s_near = model.score_many([(anchor, anchor)])[0]
    s_far = model.score_many([(anchor, "zz yy")])[0]
    if s_near > s_far:
        assert loss_near < loss_far


# --- gradient spot checks (full battery in the acceptance suite) ---


def test_retrieval_gradient_matches_finite_differences():
    model = bi_model(seed=2)
    batch = RetrievalBatch(
        anchors=("a b", "c d", "e f"),
        positives=("a c", "c e", "a b"),
        importances=(0.9, 0.4, 0.7),
        temperature=0.08,
        excluded=frozenset({(2, 0)}),
        hard_negatives=(("x y",), (), ("z w", "w v")),
    )
    _, grads = loss_retrieval(model, batch)
    numeric = finite_difference_grads(
        model, lambda m: loss_retrieval(m, batch, compute_grad=False)[0]
    )
    assert max_relative_error(grads, numeric) <= 1e-4


def test_pointwise_gradient_matches_finite_differences():
    model = cross_model(seed=3)
    pairs = [("a b", "c d", 0.2), ("c d", "e f", 0.8), ("e f", "a b", 0.5)]
    _, grads = loss_rerank_pointwise(model, pairs)
    numeric = finite_difference_grads(
        model, lambda m: loss_rerank_pointwise(m, pairs, compute_grad=False)[0]
    )
    assert max_relative_error(grads, numeric) <= 1e-4


def test_circle_gradient_matches_finite_differences():
    model = cross_model(seed=4)
    batches = [
        RerankBatch("q a", (("p b", 0.9), ("p c", 0.4)), ("n d", "n e")),
        RerankBatch("q f", (("p g", 0.7),), ("n h",)),
    ]
    _, grads = loss_rerank_circle_many(model, batches)
    numeric = finite_difference_grads(
        model, lambda m: loss_rerank_circle_many(m, batches, compute_grad=False)[0]
    )
    assert max_relative_error(grads, numeric) <= 1e-4


# --- batching ---


def test_build_batches_excludes_copurchased_candidates():
    examples = [
        RetrievalExample("a", "b", 1.0),
        RetrievalExample("c", "d", 1.0),
    ]
    batches = build_retrieval_batches(
        examples, 8, 0.05, kin={"a": {"d"}, "d": {"a"}}
    )
    assert len(batches) == 1
    assert (0, 1) in batches[0].excluded


def test_build_batches_exclusion_matches_pairwise_scan():
    # Reference: test every (anchor, positive) cell against the pair set.
    rng = random.Random(3)
    texts = [f"q{i}" for i in range(12)]
    examples = [
        RetrievalExample(rng.choice(texts), rng.choice(texts), 1.0) for _ in range(40)
    ]
    pairs = {canonical_pair(*rng.sample(texts, 2)) for _ in range(20)}
    kin = {}
    for a, b in pairs:
        kin.setdefault(a, set()).add(b)
        kin.setdefault(b, set()).add(a)
    for batch in build_retrieval_batches(examples, 16, 0.05, kin):
        expected = {
            (k, j)
            for k, anchor in enumerate(batch.anchors)
            for j, positive in enumerate(batch.positives)
            if j != k and (positive == anchor or canonical_pair(anchor, positive) in pairs)
        }
        assert batch.excluded == expected


def test_build_batches_excludes_equal_texts():
    examples = [
        RetrievalExample("a", "b", 1.0),
        RetrievalExample("c", "a", 1.0),
    ]
    batches = build_retrieval_batches(examples, 8, 0.05, {})
    assert (0, 1) in batches[0].excluded


def test_build_batches_caps_hard_negatives():
    examples = [RetrievalExample("a", "b", 1.0)]
    negs = {"a": [f"n{i}" for i in range(20)]}
    batches = build_retrieval_batches(
        examples, 8, 0.05, {}, hard_negatives=negs, hard_negative_cap=8
    )
    assert len(batches[0].hard_negatives[0]) == 8


def test_build_batches_chunking():
    examples = [RetrievalExample(f"a{i}", f"b{i}", 1.0) for i in range(10)]
    batches = build_retrieval_batches(examples, 4, 0.05, {})
    assert [len(b.anchors) for b in batches] == [4, 4, 2]


# --- optimizer and driver ---


def test_adam_moves_against_gradient():
    opt = AdamOptimizer({"w": (2,)}, learning_rate=0.1)
    params = {"w": np.array([1.0, -1.0])}
    grads = {"w": np.array([1.0, -1.0])}
    opt.step(params, grads)
    assert params["w"][0] < 1.0
    assert params["w"][1] > -1.0


def test_adam_step_rounds_like_the_expression_form():
    # Reference: the textbook update as one expression per moment.
    rng = np.random.default_rng(0)
    lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-8
    opt = AdamOptimizer({"w": (64, 8), "b": (8,)}, learning_rate=lr)
    params = {"w": rng.standard_normal((64, 8)), "b": rng.standard_normal(8)}
    ref = {name: value.copy() for name, value in params.items()}
    m = {name: np.zeros_like(value) for name, value in params.items()}
    v = {name: np.zeros_like(value) for name, value in params.items()}
    for t in range(1, 21):
        w_grad = rng.standard_normal((64, 8)) * (rng.random((64, 1)) < 0.3)
        grads = {"w": w_grad, "b": rng.standard_normal(8)}
        opt.step(params, grads)
        for name, grad in grads.items():
            m[name] = b1 * m[name] + (1.0 - b1) * grad
            v[name] = b2 * v[name] + (1.0 - b2) * grad**2
            ref[name] = ref[name] - lr * (m[name] / (1.0 - b1**t)) / (
                np.sqrt(v[name] / (1.0 - b2**t)) + eps
            )
    for name in params:
        assert np.array_equal(params[name], ref[name])
        assert np.array_equal(opt.first[name], m[name])
        assert np.array_equal(opt.second[name], v[name])


def test_train_retrieval_reduces_loss():
    examples = [
        RetrievalExample("red mask", "crimson mask", 1.0),
        RetrievalExample("blue towel", "azure towel", 1.0),
        RetrievalExample("green cup", "emerald cup", 1.0),
        RetrievalExample("red mask", "scarlet mask", 0.9),
    ]
    model = bi_model(seed=5)
    config = TrainConfig(
        objective=OBJECTIVE_RETRIEVAL, epochs=8, batch_size=4, learning_rate=5e-3
    )
    result = train(model, examples, [], config)
    first = result.trace[0][1]
    assert result.trace[-1][1] < first


def test_train_deterministic_given_seed():
    examples = [
        RetrievalExample("red mask", "crimson mask", 1.0),
        RetrievalExample("blue towel", "azure towel", 0.8),
    ]
    losses = []
    for _ in range(2):
        model = bi_model(seed=6)
        config = TrainConfig(
            objective=OBJECTIVE_RETRIEVAL, epochs=3, batch_size=2, seed=11
        )
        losses.append(train(model, examples, [], config).trace)
    assert losses[0] == losses[1]


def test_train_rejects_empty_data():
    with pytest.raises(ValueError):
        train(bi_model(), [], [], TrainConfig(objective=OBJECTIVE_RETRIEVAL))


def test_train_pointwise_and_trace_round_trip(tmp_path):
    model = cross_model(seed=7)
    data = [("a b", "c d", 0.2), ("c d", "e f", 0.8)]
    config = TrainConfig(objective=OBJECTIVE_POINTWISE, epochs=2, batch_size=2)
    result = train(model, data, data, config)
    path = tmp_path / "trace.tsv"
    save_trace(path, result, model="unit")
    attrs, rows = read_tsv(path, TRACE_KIND, has_columns=True)
    assert attrs["model"] == "unit"
    assert len(rows) == 2
    epoch, train_loss, val_loss = rows[0]
    assert epoch == "1"
    assert float(train_loss) == pytest.approx(result.trace[0][1], abs=1e-8)
    assert float(val_loss) == pytest.approx(result.trace[0][2], abs=1e-8)


def test_train_circle_objective_runs():
    model = cross_model(seed=8)
    batches = [
        RerankBatch("q a", (("p b", 0.9),), ("n c",)),
        RerankBatch("q d", (("p e", 0.6),), ("n f",)),
    ]
    config = TrainConfig(objective=OBJECTIVE_CIRCLE, epochs=2, batch_size=2)
    result = train(model, batches, [], config)
    assert len(result.trace) == 2
