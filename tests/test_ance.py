"""Hard-negative mining rounds: purity, provenance, persistence."""

import numpy as np
import pytest

from qreform import knn
from qreform.ance import (
    HardNegativeRecord,
    build_rerank_batches,
    load_hard_negatives,
    mine_hard_negatives,
    negatives_by_anchor,
    save_hard_negatives,
)
from qreform.encoders import BiEncoderModel, params_checksum
from qreform.mining import kin_pairs, load_kin, save_kin
from qreform.normalize import QueryGroup


def model(seed=0):
    return BiEncoderModel.initialize(1 << 10, 8, seed=seed)


CANDIDATES = ["red mask", "red masks", "crimson mask", "blue towel", "red towel"]


def test_mining_excludes_self_and_copurchased():
    kin = {"red mask": {"crimson mask"}, "crimson mask": {"red mask"}}
    records = mine_hard_negatives(model(), ["red mask"], CANDIDATES, kin, top_k=5)
    (record,) = records
    assert "red mask" not in record.negatives
    assert "crimson mask" not in record.negatives
    assert "red masks" in record.negatives


def test_mining_excludes_same_form_kin(tmp_path):
    # "red mask" and "red masks" share one normalized form, so they are
    # kin though neither bought anything.
    groups = [
        QueryGroup("red mask", ("red mask", "red masks"), {}),
        QueryGroup("blue towel", ("blue towel",), {"p1": 3}),
    ]
    save_kin(tmp_path / "kin.tsv", kin_pairs(groups, []))
    kin = load_kin(tmp_path / "kin.tsv")
    records = mine_hard_negatives(model(), ["red mask"], CANDIDATES, kin, top_k=5)
    (record,) = records
    assert "red masks" not in record.negatives
    assert "crimson mask" in record.negatives


def test_mining_purity_fuzz():
    rng = np.random.default_rng(0)
    queries = [f"item {i} {rng.integers(100)}" for i in range(30)]
    kin = {}
    for _ in range(60):
        a, b = rng.choice(30, size=2, replace=False)
        kin.setdefault(queries[a], set()).add(queries[b])
        kin.setdefault(queries[b], set()).add(queries[a])
    records = mine_hard_negatives(model(1), queries[:10], queries, kin, top_k=10)
    for record in records:
        for negative in record.negatives:
            assert negative not in kin.get(record.anchor, ())
            assert negative != record.anchor


def test_mining_records_provenance_checksum():
    m = model(2)
    records = mine_hard_negatives(m, ["red mask"], CANDIDATES, {}, top_k=3)
    assert records[0].source_checkpoint == params_checksum(m)


def test_mining_hashes_the_model_once(monkeypatch):
    calls = []
    real = knn.params_checksum

    def counted(model):
        calls.append(model)
        return real(model)

    monkeypatch.setattr(knn, "params_checksum", counted)
    m = model(2)
    records = mine_hard_negatives(m, ["red mask", "blue towel"], CANDIDATES, {}, top_k=3)
    assert calls == [m]
    assert {r.source_checkpoint for r in records} == {params_checksum(m)}


def test_mining_orders_anchors_and_ranks():
    records = mine_hard_negatives(
        model(), ["blue towel", "red mask"], CANDIDATES, {}, top_k=5
    )
    assert [r.anchor for r in records] == ["blue towel", "red mask"]


def test_record_rejects_anchor_in_negatives():
    with pytest.raises(ValueError):
        HardNegativeRecord("a", ("a", "b"), 1, "c0ffee")


def test_negatives_file_round_trip(tmp_path):
    records = mine_hard_negatives(
        model(5), ["red mask", "blue towel"], CANDIDATES, {}, top_k=3
    )
    path = tmp_path / "negs.tsv"
    save_hard_negatives(path, records)
    loaded = load_hard_negatives(path)
    # An anchor with no negatives writes no rows.
    assert loaded == [record for record in records if record.negatives]


def test_negatives_file_rejects_mixed_rounds(tmp_path):
    a = HardNegativeRecord("a", ("x",), 1, "c0ffee")
    b = HardNegativeRecord("b", ("y",), 2, "c0ffee")
    with pytest.raises(ValueError):
        save_hard_negatives(tmp_path / "negs.tsv", [a, b])


def test_negatives_by_anchor():
    a = HardNegativeRecord("a", ("x", "y"), 1, "c0ffee")
    b = HardNegativeRecord("b", (), 1, "c0ffee")
    assert negatives_by_anchor([a, b]) == {"a": ("x", "y"), "b": ()}


def test_build_rerank_batches_pairs_every_negative_and_skips():
    # The negatives file already holds only what the re-ranker trains on,
    # so every loaded negative enters the batch.
    positives = {
        "a": (("p1", 0.9), ("p2", 0.5)),
        "b": (),
        "c": (("p3", 0.7),),
    }
    records = [
        HardNegativeRecord("a", tuple(f"n{i}" for i in range(12)), 1, "c0ffee"),
        HardNegativeRecord("c", (), 1, "c0ffee"),
    ]
    batches = build_rerank_batches(positives, records)
    by_anchor = {b.anchor: b for b in batches}
    assert set(by_anchor) == {"a", "c"}  # "b" skipped: no positives
    assert by_anchor["a"].hard_negatives == records[0].negatives
    assert by_anchor["c"].hard_negatives == ()
