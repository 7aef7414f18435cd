"""Exact KNN index against a brute-force oracle."""

import json
import re

import numpy as np
import pytest

from qreform.encoders import BiEncoderModel, params_checksum
from qreform.files import FileFormatError
from qreform.knn import KnnIndex, build_index, load_index, save_index


def unit_rows(rng, n, dim):
    raw = rng.normal(size=(n, dim))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def brute_force(query_ids, embeddings, probe, k):
    sims = embeddings @ probe
    order = sorted(range(len(query_ids)), key=lambda i: (-sims[i], query_ids[i]))
    return [(query_ids[i], sims[i]) for i in order[:k]]


def test_knn_matches_oracle_small():
    rng = np.random.default_rng(0)
    ids = [f"q{i:02d}" for i in range(12)]
    emb = unit_rows(rng, 12, 5)
    index = KnnIndex(ids, emb)
    probe = unit_rows(rng, 1, 5)[0]
    got = index.knn(probe, 4)
    want = brute_force(ids, emb, probe, 4)
    assert [g[0] for g in got] == [w[0] for w in want]
    assert np.allclose([g[1] for g in got], [w[1] for w in want], atol=1e-12)


def test_knn_ties_break_by_ascending_id():
    # Two entries with identical embeddings tie exactly; id order decides.
    base = np.zeros((3, 4))
    base[0, 0] = 1.0
    base[1, 0] = 1.0
    base[2, 1] = 1.0
    index = KnnIndex(["zz", "aa", "mm"], base[[0, 1, 2]])
    probe = np.array([1.0, 0.0, 0.0, 0.0])
    got = index.knn(probe, 3)
    assert [g[0] for g in got] == ["aa", "zz", "mm"]
    first, second = index.knn_many(np.array([probe, [0.0, 1.0, 0.0, 0.0]]), 3)
    assert first == got
    assert second == [("mm", 1.0), ("aa", 0.0), ("zz", 0.0)]
    assert all(type(sim) is float for _, sim in first + second)


def test_knn_k_larger_than_pool_returns_all():
    rng = np.random.default_rng(1)
    index = KnnIndex(["a", "b"], unit_rows(rng, 2, 3))
    assert len(index.knn(unit_rows(rng, 1, 3)[0], 10)) == 2


def test_knn_rejects_bad_k_and_dim():
    rng = np.random.default_rng(2)
    index = KnnIndex(["a", "b"], unit_rows(rng, 2, 3))
    with pytest.raises(ValueError):
        index.knn(np.zeros(3), 0)
    with pytest.raises(ValueError):
        index.knn(np.zeros(4), 1)


def test_index_rejects_non_unit_rows():
    emb = np.array([[1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match="norm"):
        KnnIndex(["a", "b"], emb)


def test_index_rejects_duplicates_and_empty():
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError, match="unique"):
        KnnIndex(["a", "a"], unit_rows(rng, 2, 3))
    with pytest.raises(ValueError, match="empty"):
        KnnIndex([], np.zeros((0, 3)))


def test_build_index_embeds_pool_and_records_provenance(tmp_path):
    model = BiEncoderModel.initialize(1 << 10, 8, seed=0)
    index = build_index(model, ["red mask", "blue towel", "green cup"])
    assert len(index) == 3
    assert index.model_checksum == params_checksum(model)
    probe = model.embed("red mask")
    assert index.knn(probe, 1)[0][0] == "red mask"


def test_index_save_load_round_trip(tmp_path):
    model = BiEncoderModel.initialize(1 << 10, 8, seed=0)
    index = build_index(model, ["red mask", "blue towel"])
    path = tmp_path / "index.npz"
    save_index(index, path)
    loaded = load_index(path, expected_model_checksum=params_checksum(model))
    probe = model.embed("red mask")
    assert loaded.knn(probe, 2) == index.knn(probe, 2)


def test_index_load_rejects_wrong_checksum(tmp_path):
    model = BiEncoderModel.initialize(1 << 10, 8, seed=0)
    index = build_index(model, ["red mask"])
    path = tmp_path / "index.npz"
    save_index(index, path)
    with pytest.raises(FileFormatError, match="built from model"):
        load_index(path, expected_model_checksum="deadbeef")


def test_top_k_gives_the_positions_and_similarities_of_the_hits():
    rng = np.random.default_rng(3)
    ids = [f"q{i:02d}" for i in range(15)][::-1]
    emb = unit_rows(rng, 15, 4)
    emb[3] = emb[7]  # a tie, broken by ascending id
    index = KnnIndex(ids, emb)
    assert [index.position_of[q] for q in index.query_ids] == list(range(15))
    probes = np.vstack([unit_rows(rng, 2, 4), emb[3]])
    positions, sims = index.top_k(probes, 6)
    assert positions.shape == sims.shape == (3, 6)
    for row, values, hits in zip(positions, sims, index.knn_many(probes, 6)):
        assert [index.query_ids[p] for p in row] == [q for q, _ in hits]
        assert values.tolist() == [s for _, s in hits]
    tied = [index.query_ids[p] for p in positions[2][:2]]
    assert tied == sorted([ids[3], ids[7]])
    one_positions, one_sims = index.top_k(probes[:1], 6)
    hits = index.knn(probes[0], 6)
    assert [index.query_ids[p] for p in one_positions[0]] == [q for q, _ in hits]
    assert one_sims[0].tolist() == [s for _, s in hits]


def test_index_rejects_version_1_and_embeddings_of_another_dtype(tmp_path):
    model = BiEncoderModel.initialize(1 << 10, 8, seed=0)
    index = build_index(model, ["red mask", "blue towel"])
    assert index.embeddings.dtype == np.float32
    path = tmp_path / "index.npz"

    def rewritten(change):
        save_index(index, path)
        with np.load(path) as blob:
            arrays = {k: blob[k] for k in blob.files}
        meta = json.loads(arrays["meta"].tobytes())
        assert meta["dtype"] == "float32"
        change(meta, arrays)
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        np.savez(path, **arrays)

    def version_1(meta, arrays):
        meta["version"] = 1
        del meta["dtype"]
        arrays["embeddings"] = arrays["embeddings"].astype(np.float64)

    rewritten(version_1)
    with pytest.raises(FileFormatError, match=f"{re.escape(str(path))}: unsupported index version 1"):
        load_index(path)

    def widened(meta, arrays):
        arrays["embeddings"] = arrays["embeddings"].astype(np.float64)

    rewritten(widened)
    with pytest.raises(
        FileFormatError,
        match=f"{re.escape(str(path))}: array 'embeddings' is float64, the meta records float32",
    ):
        load_index(path)


def test_probes_are_ranked_in_the_index_dtype():
    rng = np.random.default_rng(4)
    emb = unit_rows(rng, 6, 5).astype(np.float32)
    index = KnnIndex([f"q{i}" for i in range(6)], emb)
    probe = unit_rows(rng, 1, 5)
    positions, sims = index.top_k(probe, 3)
    assert sims.dtype == np.float32
    want = (probe.astype(np.float32) @ emb.T)[0]
    assert sims[0].tolist() == np.sort(want)[::-1][:3].tolist()
