"""Char n-gram featurizer, bi-/cross-encoder models, checkpoints."""

import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from qreform import encoders, knn, training
from qreform.files import FileFormatError
from qreform.encoders import (
    FLOAT_DTYPES,
    NGRAM_SIZES,
    BiEncoderModel,
    CrossEncoderModel,
    Featurizer,
    featurize,
    load_checkpoint,
    params_checksum,
    save_checkpoint,
)
from tests.gradcheck import finite_difference_grads, initialized, max_relative_error
from tests.one_source_reference import one_source_blocks, one_source_scores
from tests.per_occurrence_reference import embed_many_with_backward as per_occurrence

# Each bit-for-bit invariant holds in float32, the dtype ``initialize``
# makes, and in float64, the dtype of the gradient checks; a property
# test draws the dtype as one more input.
DTYPES = st.sampled_from(FLOAT_DTYPES)

TEXTS = st.text(
    alphabet=st.sampled_from("abcdef マスク"), min_size=1, max_size=12
).filter(lambda s: s.strip())


def _hash_bucket(ngram, feature_dim):
    digest = hashlib.blake2b(ngram.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % feature_dim


def reference_featurize(text, feature_dim):
    """Reference: one blake2b digest per n-gram, counted into a dict."""
    padded = "^" + text + "$"
    buckets = {}
    for size in NGRAM_SIZES:
        for i in range(len(padded) - size + 1):
            bucket = _hash_bucket(padded[i:i + size], feature_dim)
            buckets[bucket] = buckets.get(bucket, 0.0) + 1.0
    return buckets


def hand_ngrams(text):
    padded = f"^{text}$"
    grams = []
    for n in (2, 3, 4):
        grams.extend(padded[i:i + n] for i in range(len(padded) - n + 1))
    return grams


def test_featurize_abab_bucket_counts():
    # Hand-enumerated 2/3/4-grams of "^abab$"; "ab" occurs twice.
    counts = featurize("abab", feature_dim=1 << 14)
    expected = {}
    for gram in hand_ngrams("abab"):
        bucket = _hash_bucket(gram, 1 << 14)
        expected[bucket] = expected.get(bucket, 0.0) + 1.0
    assert counts == expected
    assert counts[_hash_bucket("ab", 1 << 14)] == 2.0


def test_featurize_includes_boundary_markers():
    counts = featurize("ab", feature_dim=1 << 14)
    assert counts[_hash_bucket("^a", 1 << 14)] == 1.0
    assert counts[_hash_bucket("b$", 1 << 14)] == 1.0


def test_featurize_empty_text_error():
    with pytest.raises(ValueError):
        featurize("", feature_dim=16)


def assembled_matrix(feature_dim, texts):
    """Reference: one featurize call per text, rows stacked one by one."""
    indptr = np.zeros(len(texts) + 1, dtype=np.int64)
    index_parts, value_parts = [], []
    for i, text in enumerate(texts):
        buckets = reference_featurize(text, feature_dim)
        indices = np.array(sorted(buckets), dtype=np.int32)
        index_parts.append(indices)
        value_parts.append(np.array([buckets[b] for b in indices], dtype=np.float32))
        indptr[i + 1] = indptr[i] + len(indices)
    data = np.concatenate(value_parts) if value_parts else np.zeros(0, dtype=np.float32)
    cols = np.concatenate(index_parts) if index_parts else np.zeros(0, dtype=np.int32)
    return sparse.csr_matrix((data, cols, indptr), shape=(len(texts), feature_dim))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(TEXTS, max_size=6), min_size=1, max_size=4))
def test_featurizer_matrix_equals_assembled_rows(batches):
    # Batches repeat texts within and across calls, so gathers mix hits and misses.
    feat = Featurizer(1 << 9)
    for texts in batches:
        got = feat.matrix(texts)
        want = assembled_matrix(1 << 9, texts)
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert got.shape == want.shape


def test_model_featurizes_each_distinct_text_once(monkeypatch):
    calls = []
    real = encoders.featurize

    def counting(text, *args):
        calls.append(text)
        return real(text, *args)

    monkeypatch.setattr(encoders, "featurize", counting)
    bi = BiEncoderModel.initialize(1 << 10, 4, seed=0)
    cross = CrossEncoderModel.initialize(1 << 10, (4,), seed=0)
    texts = ["twice a", "twice b", "twice a", "twice c"]
    bi.embed_many(texts)
    bi.embed_many(texts[::-1])
    assert sorted(calls) == sorted(set(texts))
    calls.clear()
    cross.score_many([(texts[0], t) for t in texts])
    cross.score_many(list(zip(texts, texts[::-1])))
    assert sorted(calls) == sorted(set(texts))
    # A one-source call's source, and embed's text, are hashed but never interned.
    calls.clear()
    for _ in range(2):
        bi.embed("probe")
        cross.score_many([("probe", t) for t in texts])
        cross.score_many_with_backward([("probe", t) for t in texts])
    assert calls == []
    assert len(bi.featurizer) == len(cross.featurizer) == len(set(texts))


def test_featurizer_matrix_matches_rows():
    feat = Featurizer(1 << 10)
    texts = ["abc", "abd", "abc"]
    matrix = feat.matrix(texts)
    assert matrix.shape == (3, 1 << 10)
    assert np.allclose(matrix[0].toarray(), matrix[2].toarray())
    indices, values = feat.row("abc")
    dense = np.zeros(1 << 10)
    dense[indices] = values
    assert np.allclose(matrix[0].toarray().ravel(), dense)


# The scripts the paper serves, beside arbitrary unicode.
SERVED_TEXTS = st.text(
    alphabet=st.sampled_from("マスクシート赤いमास्कक़लम ab"), min_size=1, max_size=16
)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(min_size=1, max_size=24), SERVED_TEXTS), st.sampled_from([1, 7, 1 << 6, 1 << 14]))
def test_digest_split_keeps_every_bucket(text, feature_dim):
    want = reference_featurize(text, feature_dim)
    order = sorted(want)
    got = featurize(text, feature_dim)
    assert got == want and list(got) == order
    feat = Featurizer(feature_dim)
    for _ in range(2):  # not stored, then stored
        indices, counts = feat.row(text)
        assert indices.dtype == np.int32 and counts.dtype == np.float32
        assert indices.tolist() == order
        assert counts.tolist() == [want[b] for b in order]
        feat.ids([text])


# --- bi-encoder ---


def test_bi_encoder_unit_norm():
    model = BiEncoderModel.initialize(1 << 12, 16, seed=0)
    emb = model.embed_many(["mask sheet", "towel", "ますく"])
    assert np.allclose(np.linalg.norm(emb, axis=1), 1.0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(TEXTS, st.sampled_from([(np.float64, 1e-12), (np.float32, knn._UNIT_TOL)]))
def test_bi_encoder_norm_invariant_fuzz(text, dtype_and_tolerance):
    # A float32 embedding must pass the index's unit-norm check.
    dtype, tolerance = dtype_and_tolerance
    model = initialized(BiEncoderModel, dtype, 1 << 10, 8, seed=1)
    assert np.linalg.norm(model.embed(text)) == pytest.approx(1.0, abs=tolerance)


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(st.text(min_size=1, max_size=24), SERVED_TEXTS),
    st.integers(1, 9),
    st.integers(0, 3),
    DTYPES,
)
def test_embed_equals_embed_many_bitwise(text, embed_dim, seed, dtype):
    model = initialized(BiEncoderModel, dtype, 1 << 8, embed_dim, seed=seed)
    digests = encoders._ngram_digests(text)
    one = model.embed(text)  # from features the table does not keep
    assert model.embed(text, digests=digests).tobytes() == one.tobytes()
    assert len(model.featurizer) == 0
    assert one.tobytes() == model.embed_many([text])[0].tobytes()
    assert model.embed(text).tobytes() == one.tobytes()  # now from the table
    assert model.embed(text, digests=digests).tobytes() == one.tobytes()
    assert one.dtype == dtype


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from(["mask", "red mask", "マスク", "mask", "towel x"]), min_size=1,
             max_size=30),
    st.integers(0, 3),
    DTYPES,
)
def test_repeated_texts_embed_and_backpropagate_as_each_occurrence(texts, seed, dtype):
    model = initialized(BiEncoderModel, dtype, 1 << 8, 6, seed=seed)
    units, backward = model.embed_many_with_backward(texts)
    want_units, want_backward = per_occurrence(model, texts)
    assert units.dtype == dtype and units.tobytes() == want_units.tobytes()
    grad_units = np.random.default_rng(seed).normal(size=units.shape).astype(dtype)
    grads, want = backward(grad_units), want_backward(grad_units)
    assert grads.keys() == want.keys()
    assert grads["projection"].tobytes() == want["projection"].tobytes()


def test_a_degenerate_text_is_named_first_in_batch_order():
    feature_dim = 1 << 14
    model = BiEncoderModel.initialize(feature_dim, 4, seed=0)
    # Zero the projection rows of two texts' buckets, and of no other's.
    good, late, early = "towel", "pq", "zz"
    dead = featurize(late, feature_dim).keys() | featurize(early, feature_dim).keys()
    assert not dead & featurize(good, feature_dim).keys()
    model.projection[sorted(dead)] = 0.0
    batch = [good, good, early, late, early, late]
    for texts in (batch, batch[:2] + batch[3:]):
        with pytest.raises(ValueError) as raised:
            model.embed_many(texts)
        with pytest.raises(ValueError) as reference:
            per_occurrence(model, texts)
        assert str(raised.value) == str(reference.value)
        assert repr(texts[2]) in str(raised.value)


def test_bi_encoder_similarity_is_cosine():
    model = initialized(BiEncoderModel, np.float64, 1 << 12, 16, seed=0)
    units = model.embed_many(["red mask", "red masks"])
    raw = model.featurizer.matrix(["red mask", "red masks"]) @ model.projection
    cosine = raw[0] @ raw[1] / (np.linalg.norm(raw[0]) * np.linalg.norm(raw[1]))
    assert float(units[0] @ units[1]) == pytest.approx(cosine, abs=1e-12)


def test_bi_encoder_init_bounds():
    model = BiEncoderModel.initialize(1 << 8, 8, seed=0)
    bound = 1.0 / np.sqrt(1 << 8)
    proj = model.parameters()["projection"]
    assert proj.shape == (1 << 8, 8)
    assert np.all(np.abs(proj) <= bound)
    assert np.std(proj) > 0


def test_bi_encoder_deterministic_init():
    a = BiEncoderModel.initialize(1 << 8, 8, seed=7)
    b = BiEncoderModel.initialize(1 << 8, 8, seed=7)
    assert params_checksum(a) == params_checksum(b)
    c = BiEncoderModel.initialize(1 << 8, 8, seed=8)
    assert params_checksum(c) != params_checksum(a)


# --- cross-encoder ---


def test_cross_encoder_scores_are_position_aware():
    model = CrossEncoderModel.initialize(1 << 10, (16, 8), seed=0)
    fwd = model.score_many([("red mask", "blue towel")])[0]
    rev = model.score_many([("blue towel", "red mask")])[0]
    assert fwd != pytest.approx(rev, abs=1e-9)


def test_cross_encoder_score_many_matches_score_pair():
    model = CrossEncoderModel.initialize(1 << 10, (16, 8), seed=0)
    pairs = [("a b", "c d"), ("c d", "a b"), ("mask", "mask")]
    many = model.score_many(pairs)
    singles = [model.score_many([(s, t)])[0] for s, t in pairs]
    assert np.allclose(many, singles, atol=1e-12)


def reference_forward(model, pairs):
    """Reference: the hstacked joint CSR through every layer, plus dL/dw0."""
    sources = model.featurizer.matrix([s for s, _ in pairs])
    targets = model.featurizer.matrix([t for _, t in pairs])
    joint = sparse.hstack(
        [sources, targets, sources.minimum(targets), (sources - targets).maximum(0)],
        format="csr",
    )
    activations = [joint]
    value = joint
    for layer, (w, b) in enumerate(zip(model.weights, model.biases)):
        value = value @ w + b
        if layer < len(model.weights) - 1:
            value = np.tanh(value)
        activations.append(value)

    def grad_w0(grad_scores):
        delta = np.asarray(grad_scores).reshape(-1, 1)
        for layer in range(len(model.weights) - 1, 0, -1):
            delta = (delta @ model.weights[layer].T) * (1.0 - activations[layer] ** 2)
        return joint.T @ delta

    return np.asarray(value).reshape(-1), grad_w0


ONE_SOURCE = st.builds(
    lambda source, targets: [(source, t) for t in targets],
    TEXTS,
    st.lists(TEXTS, min_size=1, max_size=12),
)
SEVERAL_SOURCES = st.lists(st.tuples(TEXTS, TEXTS), min_size=1, max_size=12).filter(
    lambda pairs: len({s for s, _ in pairs}) > 1
)


@settings(max_examples=80, deadline=None)
@given(st.one_of(ONE_SOURCE, SEVERAL_SOURCES), st.integers(0, 3))
def test_block_form_matches_hstacked_joint_matrix(pairs, seed):
    model = initialized(CrossEncoderModel, np.float64, 1 << 6, (8, 4), seed=seed)
    grad_scores = np.random.default_rng(seed).standard_normal(len(pairs))
    scores, backward = model.score_many_with_backward(pairs)
    want, want_grad_w0 = reference_forward(model, pairs)
    assert np.max(np.abs(scores - want)) <= 1e-12
    assert np.max(np.abs(backward(grad_scores)["w0"] - want_grad_w0(grad_scores))) <= 1e-12


@st.composite
def one_source_calls(draw):
    """One source; targets may repeat and may include the source itself."""
    source = draw(TEXTS)
    pool = draw(st.lists(TEXTS, min_size=1, max_size=6))
    targets = draw(st.lists(st.sampled_from([source, *pool]), min_size=1, max_size=12))
    return [(source, t) for t in targets]


# "ab" and "xy" share no bucket at feature_dim 1 << 6.
@example(pairs=[("ab", "xy"), ("ab", "ab"), ("ab", "xy"), ("ab", "ab b")], seed=0, dtype=np.float32)
@example(pairs=[("ab", "xy"), ("ab", "ab"), ("ab", "xy"), ("ab", "ab b")], seed=0, dtype=np.float64)
@settings(max_examples=80, deadline=None)
@given(st.one_of(one_source_calls(), SEVERAL_SOURCES), st.integers(0, 3), DTYPES)
def test_cached_scores_equal_fresh_scores_bitwise(pairs, seed, dtype):
    model = initialized(CrossEncoderModel, dtype, 1 << 6, (8, 4), seed=seed)
    source, targets = pairs[0][0], tuple(t for _, t in pairs)
    one_source = len({s for s, _ in pairs}) == 1

    def pooled():
        # A source that is also a target is read from the table, any other
        # from its digests.
        pool = encoders.CandidatePool(model.featurizer, targets)
        digests = encoders._ngram_digests(source)
        return model.score_pool(source, pool, np.arange(len(targets)), source_digests=digests)

    first = pooled() if one_source else model.score_many(pairs)  # fills the T·W_t cache
    fresh, _ = model.score_many_with_backward(pairs)
    assert first.dtype == fresh.dtype == dtype
    if one_source:
        # One source: the path before row-id scoring, T·W_t fresh.
        want = one_source_scores(model, source, targets)
        assert fresh.tobytes() == want.tobytes()
    else:
        want = fresh
    assert first.tobytes() == want.tobytes()
    assert model.score_many(pairs).tobytes() == want.tobytes()  # from the cache
    if one_source:
        assert pooled().tobytes() == want.tobytes()
    assert np.count_nonzero(model._term_filled) == len(set(targets))


@settings(max_examples=80, deadline=None)
@given(one_source_calls(), st.booleans())
def test_one_source_blocks_equal_the_reference_bitwise(pairs, intern_source):
    model = CrossEncoderModel.initialize(1 << 6, (8, 4), seed=0)
    source, targets = pairs[0][0], [t for _, t in pairs]
    if intern_source:
        model.featurizer.ids([source])
    pool = encoders.CandidatePool(model.featurizer, targets)
    blocks = model._one_source_blocks(
        source, pool, np.arange(len(pool)), encoders._ngram_digests(source)
    )
    columns, counts, both, surplus = one_source_blocks(model, source, targets)
    assert np.array_equal(blocks.columns, columns)
    assert blocks.sources.tobytes() == counts.tobytes()
    for got, want in ((blocks.both, both), (blocks.surplus, surplus)):
        assert got.shape == want.shape and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(TEXTS, min_size=1, max_size=8),
    st.lists(st.integers(0, 7), unique=True, max_size=8),
    st.lists(st.integers(0, (1 << 6) - 1), min_size=1, max_size=10, unique=True),
)
def test_pool_counts_on_reads_the_texts_densely(texts, picks, buckets):
    feat = Featurizer(1 << 6)
    feat.ids(["unrelated text", *texts[::-1]])  # pool rows need not be contiguous
    pool = encoders.CandidatePool(feat, texts)  # texts may repeat
    dense = feat.matrix(texts).toarray()
    positions = np.array([p for p in picks if p < len(texts)][::-1], dtype=np.int64)
    columns = np.array(sorted(buckets), dtype=np.int32)
    got = pool.counts_on(positions, columns)
    assert got.shape == (len(positions), len(columns)) and got.flags.c_contiguous
    assert np.array_equal(got, dense[positions][:, columns])
    assert np.array_equal(pool.rows, feat.ids(texts))


def _copy_of(model):
    return CrossEncoderModel(
        [w.copy() for w in model.weights],
        [b.copy() for b in model.biases],
        model.feature_dim,
        model.seed,
    )


@settings(max_examples=30, deadline=None)
@given(st.one_of(one_source_calls(), SEVERAL_SOURCES), st.integers(0, 3))
def test_cached_scores_follow_a_training_step(pairs, seed):
    model = CrossEncoderModel.initialize(1 << 6, (8, 4), seed=seed)
    live = model.parameters()
    model.score_many(pairs)
    with pytest.raises(ValueError, match="read-only"):
        live["w0"][0, 0] += 1.0
    with pytest.raises(ValueError, match="read-only"):
        model.weights[0][-1, -1] = 0.0
    config = training.TrainConfig(
        objective=training.OBJECTIVE_POINTWISE, epochs=1, batch_size=len(pairs),
        learning_rate=0.1, seed=seed,
    )
    training.train(model, [(s, t, 1.0) for s, t in pairs], [], config)
    assert model.score_many(pairs).tobytes() == _copy_of(model).score_many(pairs).tobytes()


@pytest.mark.parametrize(
    "pairs",
    [
        [("red mask", "red masks"), ("red mask", "mask red"), ("red mask", "towel")],
        [("red mask", "red masks"), ("towel", "mask red"), ("cup", "red cup")],
    ],
    ids=["one-source", "several-sources"],
)
def test_first_layer_gradient_matches_finite_differences(pairs):
    model = initialized(CrossEncoderModel, np.float64, 1 << 4, (3,), seed=5)
    weights = np.random.default_rng(5).standard_normal(len(pairs))
    _, backward = model.score_many_with_backward(pairs)
    grads = backward(weights)
    numeric = finite_difference_grads(
        model, lambda m: float(weights @ m.score_many(pairs))
    )
    assert max_relative_error(
        {k: grads[k] for k in ("w0", "b0")}, numeric
    ) <= 1e-6


def test_cross_encoder_zero_biases_at_init():
    model = CrossEncoderModel.initialize(1 << 8, (8, 4), seed=0)
    params = model.parameters()
    for name, value in params.items():
        if name.startswith("b"):
            assert np.all(value == 0.0)


# --- checkpoints ---


def test_bi_checkpoint_round_trip(tmp_path):
    model = BiEncoderModel.initialize(1 << 10, 8, seed=3)
    path = tmp_path / "bi.npz"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert isinstance(loaded, BiEncoderModel)
    assert params_checksum(loaded) == params_checksum(model)
    text = "mask sheet"
    assert np.allclose(loaded.embed(text), model.embed(text), atol=1e-15)


def test_cross_checkpoint_round_trip(tmp_path):
    model = CrossEncoderModel.initialize(1 << 9, (8, 4), seed=3)
    path = tmp_path / "cross.npz"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert isinstance(loaded, CrossEncoderModel)
    assert loaded.score_many([("a", "b")])[0] == pytest.approx(
        model.score_many([("a", "b")])[0], abs=1e-15
    )


def test_checkpoint_rejects_dimension_mismatch(tmp_path):
    model = BiEncoderModel.initialize(1 << 10, 8, seed=0)
    path = tmp_path / "bi.npz"
    save_checkpoint(model, path)
    blob = np.load(path, allow_pickle=False)
    arrays = {k: blob[k] for k in blob.files}
    # Corrupt the stored projection shape relative to the metadata.
    arrays["param_projection"] = arrays["param_projection"][:-1, :]
    np.savez(path, **arrays)
    with pytest.raises(FileFormatError, match="shape"):
        load_checkpoint(path)


def test_checkpoint_rejects_other_ngram_sizes(tmp_path):
    path = tmp_path / "bi.npz"
    save_checkpoint(BiEncoderModel.initialize(1 << 6, 4, seed=0), path)
    with np.load(path) as blob:
        arrays = {k: blob[k] for k in blob.files}
    meta = json.loads(arrays["meta"].tobytes())
    assert meta["ngram_sizes"] == list(NGRAM_SIZES) == [2, 3, 4]
    meta["ngram_sizes"] = [2, 3]
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **arrays)
    with pytest.raises(FileFormatError, match=f"{re.escape(str(path))}: n-gram sizes"):
        load_checkpoint(path)


@pytest.mark.parametrize("order", ["C", "F"])
def test_params_checksum_hashes_each_array_as_its_bytes(order):
    for dtype in FLOAT_DTYPES:
        model = BiEncoderModel(
            np.asarray(np.random.default_rng(0).standard_normal((16, 3)), dtype=dtype, order=order)
        )
        assert model.projection.flags.c_contiguous == (order == "C")
        meta = encoders._model_meta(model)
        assert meta["dtype"] == np.dtype(dtype).name
        digest = hashlib.sha256()
        digest.update(json.dumps(meta, sort_keys=True).encode("utf-8"))
        digest.update(b"projection")
        digest.update(np.ascontiguousarray(model.projection).tobytes())
        assert params_checksum(model) == digest.hexdigest()
        cross = initialized(CrossEncoderModel, dtype, 1 << 4, (3,), seed=1)
        digest = hashlib.sha256()
        digest.update(json.dumps(encoders._model_meta(cross), sort_keys=True).encode("utf-8"))
        for name, array in sorted(cross.parameters().items()):
            digest.update(name.encode("utf-8"))
            digest.update(array.tobytes())
        assert params_checksum(cross) == digest.hexdigest()


def test_checkpoint_checksum_tracks_parameters(tmp_path):
    model = BiEncoderModel.initialize(1 << 10, 8, seed=0)
    before = params_checksum(model)
    params = model.parameters()
    params["projection"] = params["projection"] + 1e-6
    model.set_parameters(params)
    assert params_checksum(model) != before


def rewrite_npz(path, change):
    """Rewrite a ``write_npz`` file after ``change(meta, arrays)``."""
    with np.load(path) as blob:
        arrays = {k: blob[k] for k in blob.files}
    meta = json.loads(arrays.pop("meta").tobytes())
    change(meta, arrays)
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **arrays)


def as_version_1(meta, arrays):
    """A version 1 file: float64 arrays and no recorded dtype."""
    meta["version"] = 1
    del meta["dtype"]
    for name in [n for n in arrays if arrays[n].dtype.kind == "f"]:
        arrays[name] = arrays[name].astype(np.float64)


@pytest.mark.parametrize(
    "model",
    [BiEncoderModel.initialize(1 << 6, 4, seed=0), CrossEncoderModel.initialize(1 << 5, (3,))],
    ids=["bi", "cross"],
)
def test_checkpoint_rejects_version_1_and_arrays_of_another_dtype(tmp_path, model):
    path = tmp_path / "model.npz"
    save_checkpoint(model, path)
    with np.load(path) as blob:
        assert {blob[k].dtype for k in blob.files if k != "meta"} == {np.dtype(np.float32)}
        assert json.loads(blob["meta"].tobytes())["dtype"] == "float32"
    rewrite_npz(path, as_version_1)
    with pytest.raises(FileFormatError, match=f"{re.escape(str(path))}: unsupported checkpoint version 1"):
        load_checkpoint(path)

    save_checkpoint(model, path)
    name = next(iter(model.parameters()))

    def widen_one(meta, arrays):
        arrays[f"param_{name}"] = arrays[f"param_{name}"].astype(np.float64)

    rewrite_npz(path, widen_one)
    with pytest.raises(
        FileFormatError,
        match=f"{re.escape(str(path))}: array '{name}' is float64, the meta records float32",
    ):
        load_checkpoint(path)


def test_a_float64_checkpoint_loads_as_float64(tmp_path):
    model = initialized(CrossEncoderModel, np.float64, 1 << 5, (3,), seed=2)
    path = tmp_path / "cross.npz"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.dtype == np.float64 and params_checksum(loaded) == params_checksum(model)


def test_a_model_takes_one_float_dtype():
    with pytest.raises(ValueError, match="one dtype"):
        BiEncoderModel(np.zeros((4, 2), dtype=np.int64))
    weights = [np.zeros((4, 3), dtype=np.float32), np.zeros((3, 1))]
    with pytest.raises(ValueError, match="one dtype"):
        CrossEncoderModel(weights, [np.zeros(3, dtype=np.float32), np.zeros(1)], 1)
