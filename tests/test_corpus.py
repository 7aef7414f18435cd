"""Log ingestion, tiers, co-purchase graph, splits."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qreform.files import FileFormatError
from qreform.corpus import (
    TIER_IMPOVERISHED,
    TIER_RICH,
    build_copurchase_pairs,
    ingest_log,
    load_corpus,
    make_split,
    save_corpus,
    split_rich_impoverished,
    split_validation,
)
from qreform.mining import QueryPair
from tests.conftest import build_corpus


def write_log(tmp_path, body):
    path = tmp_path / "log.tsv"
    path.write_text("#qreform-behavior-log v1\n" + body, encoding="utf-8")
    return path


def test_ingest_aggregates_rows(tmp_path):
    path = write_log(tmp_path, "q1\tpA\t2\nq1\tpA\t3\nq1\tpB\t4\n")
    corpus = ingest_log(path, min_purchase=2)
    assert corpus.events("q1") == {"pA": 5, "pB": 4}
    assert corpus.queries["q1"].total_purchases == 9


def test_ingest_threshold_filters_products(tmp_path):
    path = write_log(tmp_path, "q1\tpA\t1\nq1\tpB\t4\n")
    corpus = ingest_log(path, min_purchase=2)
    assert corpus.events("q1") == {"pB": 4}
    assert corpus.raw_events("q1") == {"pA": 1, "pB": 4}
    assert corpus.queries["q1"].total_purchases == 4


def test_ingest_empty_log_is_valid(tmp_path):
    path = write_log(tmp_path, "")
    corpus = ingest_log(path, min_purchase=2)
    assert corpus.queries == {}


def test_ingest_zero_purchase_row_registers_query(tmp_path):
    path = write_log(tmp_path, "q1\t\t0\n")
    corpus = ingest_log(path, min_purchase=2)
    assert "q1" in corpus.queries
    assert corpus.queries["q1"].total_purchases == 0


def test_ingest_malformed_line_names_location(tmp_path):
    path = write_log(tmp_path, "q1\tpA\n")
    with pytest.raises(FileFormatError, match=r"log\.tsv:2"):
        ingest_log(path, min_purchase=2)


def test_ingest_bad_count(tmp_path):
    path = write_log(tmp_path, "q1\tpA\tmany\n")
    with pytest.raises(FileFormatError, match=":2"):
        ingest_log(path, min_purchase=2)


def test_ingest_negative_count(tmp_path):
    path = write_log(tmp_path, "q1\tpA\t-3\n")
    with pytest.raises(FileFormatError):
        ingest_log(path, min_purchase=2)


def test_ingest_empty_query(tmp_path):
    path = write_log(tmp_path, "\tpA\t3\n")
    with pytest.raises(FileFormatError):
        ingest_log(path, min_purchase=2)


@settings(max_examples=50, deadline=None)
@given(st.permutations(list(range(6))))
def test_ingest_row_order_invariance(order):
    rows = [
        ("q1", "pA", 2),
        ("q1", "pB", 3),
        ("q2", "pA", 4),
        ("q2", "pC", 1),
        ("q3", "pD", 7),
        ("q3", "pD", 1),
    ]
    base = build_corpus(rows)
    shuffled = build_corpus([rows[i] for i in order])
    assert {q: shuffled.events(q) for q in shuffled.queries} == {
        q: base.events(q) for q in base.queries
    }


# --- tiers ---


def test_split_rich_impoverished():
    corpus = build_corpus([("rich", "pA", 25), ("tail", "pB", 3)])
    rich, poor = split_rich_impoverished(corpus, rich_threshold=20)
    assert rich == {"rich"} and poor == {"tail"}
    assert corpus.queries["rich"].traffic_tier == TIER_RICH
    assert corpus.queries["tail"].traffic_tier == TIER_IMPOVERISHED


def test_rich_threshold_boundary_is_inclusive():
    corpus = build_corpus([("edge", "pA", 20)])
    rich, _ = split_rich_impoverished(corpus, rich_threshold=20)
    assert rich == {"edge"}


def test_rich_threshold_zero_rejected():
    corpus = build_corpus([("q", "pA", 5)])
    with pytest.raises(ValueError, match="nothing to reformulate"):
        split_rich_impoverished(corpus, rich_threshold=0)


# --- co-purchase graph ---


def test_copurchase_four_queries_sharing_product():
    corpus = build_corpus([(f"q{i}", "pA", 3) for i in range(4)])
    records = build_copurchase_pairs(corpus)
    assert len(records) == 6
    assert all(r.query_a < r.query_b for r in records)
    assert all(r.shared_products == 1 for r in records)


def test_copurchase_counts_shared_products():
    corpus = build_corpus(
        [
            ("q1", "pA", 2),
            ("q1", "pB", 2),
            ("q2", "pA", 2),
            ("q2", "pB", 2),
            ("q2", "pC", 2),
            ("q3", "pZ", 2),
        ]
    )
    records = build_copurchase_pairs(corpus)
    assert [(r.query_a, r.query_b, r.shared_products) for r in records] == [
        ("q1", "q2", 2)
    ]


def test_copurchase_respects_min_purchase():
    corpus = build_corpus([("q1", "pA", 1), ("q2", "pA", 5)])
    assert build_copurchase_pairs(corpus) == []


# --- splits ---


def make_pairs(n):
    pairs = []
    for i in range(n):
        a, b = f"q{i:03d}", f"q{(i + 7) % n:03d}"
        if a > b:
            a, b = b, a
        pairs.append(QueryPair(a, b, 0.5, 0.5, 0.5, 1))
    return sorted(set(pairs), key=lambda p: (p.source, p.target))


def test_make_split_deterministic():
    pairs = make_pairs(40)
    s1 = make_split(pairs, 8, seed=3)
    s2 = make_split(pairs, 8, seed=3)
    assert s1 == s2
    s3 = make_split(pairs, 8, seed=4)
    assert s3.test_query_ids != s1.test_query_ids


def test_make_split_isolates_test_queries():
    pairs = make_pairs(40)
    split = make_split(pairs, 8, seed=0)
    assert len(split.test_query_ids) == 8
    for shard in (split.train, split.validation):
        for pair in shard:
            assert pair.source not in split.test_query_ids
            assert pair.target not in split.test_query_ids
    for pair in split.test:
        assert (
            pair.source in split.test_query_ids or pair.target in split.test_query_ids
        )
    total = len(split.train) + len(split.validation) + len(split.test)
    assert total == len(pairs)


def test_make_split_validation_fraction():
    pairs = make_pairs(60)
    split = make_split(pairs, 5, seed=1)
    rest = len(split.train) + len(split.validation)
    assert len(split.validation) == round(rest / 10)


def test_make_split_too_many_test_queries():
    pairs = make_pairs(10)
    with pytest.raises(ValueError):
        make_split(pairs, 100, seed=0)


def test_split_validation_empty_input():
    assert split_validation([], random.Random(0)) == ([], [])


def test_split_validation_ignores_input_order():
    pairs = make_pairs(40)
    train, validation = split_validation(pairs, random.Random(2))
    assert (train, validation) == split_validation(pairs[::-1], random.Random(2))
    assert len(validation) == round(len(pairs) / 10)
    assert sorted(train + validation, key=lambda p: (p.source, p.target)) == pairs


# --- persistence ---


def test_corpus_round_trip(tmp_path):
    corpus = build_corpus([("q1", "pA", 5), ("q1", "pB", 1), ("q2", "pC", 30)])
    split_rich_impoverished(corpus, rich_threshold=20)
    qpath, epath = tmp_path / "q.tsv", tmp_path / "e.tsv"
    save_corpus(corpus, qpath, epath)
    loaded = load_corpus(qpath, epath)
    assert set(loaded.queries) == {"q1", "q2"}
    assert loaded.queries["q2"].traffic_tier == TIER_RICH
    assert loaded.queries["q1"].traffic_tier == TIER_IMPOVERISHED
    assert loaded.events("q1") == corpus.events("q1")
    assert loaded.raw_events("q1") == corpus.raw_events("q1")
    assert loaded.queries["q1"].total_purchases == corpus.queries["q1"].total_purchases


def test_load_corpus_rejects_unknown_event_query(tmp_path):
    corpus = build_corpus([("q1", "pA", 5)])
    qpath, epath = tmp_path / "q.tsv", tmp_path / "e.tsv"
    save_corpus(corpus, qpath, epath)
    body = epath.read_text(encoding="utf-8") + "ghost\tpX\t4\n"
    epath.write_text(body, encoding="utf-8")
    with pytest.raises(FileFormatError, match="ghost"):
        load_corpus(qpath, epath)
