"""Hard-negative mining rounds: purity, provenance, persistence."""

import numpy as np
import pytest

from qreform.ance import (
    HardNegativeRecord,
    build_rerank_batches,
    load_hard_negatives,
    mine_hard_negatives,
    negatives_by_anchor,
    save_hard_negatives,
)
from qreform.encoders import BiEncoderModel, params_checksum
from qreform.training import canonical_pair as canon


def model(seed=0):
    return BiEncoderModel.initialize(1 << 10, 8, seed=seed)


CANDIDATES = {
    "red mask": "red mask",
    "red masks": "red masks",
    "crimson mask": "crimson mask",
    "blue towel": "blue towel",
    "red towel": "red towel",
}


def test_mining_excludes_self_and_copurchased():
    copurchased = frozenset({canon("red mask", "crimson mask")})
    records = mine_hard_negatives(
        model(), ["red mask"], CANDIDATES, copurchased, top_k=5
    )
    (record,) = records
    assert "red mask" not in record.negatives
    assert "crimson mask" not in record.negatives
    assert "red masks" in record.negatives


def test_mining_excludes_normalization_duplicates():
    normalized = {q: q.rstrip("s") for q in CANDIDATES}
    normalized["anchor"] = "red mask"
    records = mine_hard_negatives(
        model(),
        ["anchor"],
        CANDIDATES,
        frozenset(),
        top_k=5,
        normalized=normalized,
    )
    (record,) = records
    assert "red mask" not in record.negatives
    assert "red masks" not in record.negatives


def test_mining_purity_fuzz():
    rng = np.random.default_rng(0)
    queries = [f"item {i} {rng.integers(100)}" for i in range(30)]
    candidates = {q: q for q in queries}
    copurchased = set()
    for _ in range(60):
        a, b = rng.choice(30, size=2, replace=False)
        copurchased.add(canon(queries[a], queries[b]))
    records = mine_hard_negatives(
        model(1), queries[:10], candidates, frozenset(copurchased), top_k=10
    )
    for record in records:
        for negative in record.negatives:
            assert canon(record.anchor, negative) not in copurchased
            assert negative != record.anchor


def test_mining_records_provenance_checksum():
    m = model(2)
    records = mine_hard_negatives(m, ["red mask"], CANDIDATES, frozenset(), top_k=3)
    assert records[0].source_checkpoint == params_checksum(m)


def test_mining_orders_anchors_and_ranks():
    records = mine_hard_negatives(
        model(), ["blue towel", "red mask"], CANDIDATES, frozenset(), top_k=5
    )
    assert [r.anchor for r in records] == ["blue towel", "red mask"]


def test_record_rejects_anchor_in_negatives():
    with pytest.raises(ValueError):
        HardNegativeRecord("a", ("a", "b"), 1, "c0ffee")


def test_negatives_file_round_trip(tmp_path):
    records = mine_hard_negatives(
        model(5), ["red mask", "blue towel"], CANDIDATES, frozenset(), top_k=3
    )
    path = tmp_path / "negs.tsv"
    save_hard_negatives(path, records)
    loaded = load_hard_negatives(path)
    assert loaded == records


def test_negatives_file_rejects_mixed_rounds(tmp_path):
    a = HardNegativeRecord("a", ("x",), 1, "c0ffee")
    b = HardNegativeRecord("b", ("y",), 2, "c0ffee")
    with pytest.raises(ValueError):
        save_hard_negatives(tmp_path / "negs.tsv", [a, b])


def test_negatives_by_anchor():
    a = HardNegativeRecord("a", ("x", "y"), 1, "c0ffee")
    b = HardNegativeRecord("b", (), 1, "c0ffee")
    assert negatives_by_anchor([a, b]) == {"a": ("x", "y"), "b": ()}


def test_build_rerank_batches_caps_and_skips():
    positives = {
        "a": (("p1", 0.9), ("p2", 0.5)),
        "b": (),
        "c": (("p3", 0.7),),
    }
    records = [
        HardNegativeRecord("a", tuple(f"n{i}" for i in range(12)), 1, "c0ffee"),
        HardNegativeRecord("c", (), 1, "c0ffee"),
    ]
    batches = build_rerank_batches(positives, records, hard_negative_cap=8)
    by_anchor = {b.anchor: b for b in batches}
    assert set(by_anchor) == {"a", "c"}  # "b" skipped: no positives
    assert len(by_anchor["a"].hard_negatives) == 8
    assert by_anchor["c"].hard_negatives == ()
