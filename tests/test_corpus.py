"""Log ingestion, the rich pool, co-purchase graph, splits."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qreform.files import FileFormatError
from qreform.corpus import (
    copurchase_from_product_sets,
    ingest_log,
    load_corpus,
    make_split,
    rich_queries,
    save_events,
    save_queries,
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


def test_ingest_keeps_query_starting_with_hash(tmp_path):
    path = write_log(tmp_path, "#1 mask\tp1\t3\n")
    corpus = ingest_log(path, min_purchase=2)
    assert corpus.events("#1 mask") == {"p1": 3}


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


# --- the rich pool ---


def test_rich_queries_counts_surviving_purchases():
    corpus = build_corpus(
        [("rich", "pA", 25), ("tail", "pB", 3), ("also rich", "pC", 30), ("noisy", "pD", 1)]
    )
    # "noisy" bought 1 < min_purchase, so it has no surviving purchases.
    assert rich_queries(corpus, rich_threshold=20) == ["also rich", "rich"]
    assert rich_queries(corpus, rich_threshold=1) == ["also rich", "rich", "tail"]


def test_rich_threshold_boundary_is_inclusive():
    corpus = build_corpus([("edge", "pA", 20), ("below", "pA", 19)])
    assert rich_queries(corpus, rich_threshold=20) == ["edge"]


# --- co-purchase graph ---


def query_copurchase(corpus):
    """Co-purchase records over individual queries (post-filter behavior)."""
    return copurchase_from_product_sets(
        {query_id: frozenset(corpus.events(query_id)) for query_id in corpus.queries}
    )


def test_copurchase_four_queries_sharing_product():
    corpus = build_corpus([(f"q{i}", "pA", 3) for i in range(4)])
    records = query_copurchase(corpus)
    assert len(records) == 6
    assert all(a < b for a, b in records)


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
    # Two shared products still make one pair.
    assert query_copurchase(corpus) == [("q1", "q2")]


def test_copurchase_respects_min_purchase():
    corpus = build_corpus([("q1", "pA", 1), ("q2", "pA", 5)])
    assert query_copurchase(corpus) == []


# --- splits ---


def make_pairs(n):
    pairs = []
    for i in range(n):
        a, b = f"q{i:03d}", f"q{(i + 7) % n:03d}"
        if a > b:
            a, b = b, a
        pairs.append(QueryPair(a, b, 0.5, 0.5, 0.5))
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
    corpus = build_corpus([("q1", "pA", 5), ("q1", "pB", 1), ("q2", "pC", 30), ("q3", None, 0)])
    qpath, epath = tmp_path / "q.tsv", tmp_path / "e.tsv"
    save_queries(corpus, qpath)
    save_events(corpus, epath)
    assert qpath.read_text(encoding="utf-8").splitlines()[1:] == ["query_id", "q1", "q2", "q3"]
    loaded = load_corpus(qpath, epath)
    assert loaded.queries == corpus.queries
    assert rich_queries(loaded, rich_threshold=20) == ["q2"]
    assert loaded.events("q1") == corpus.events("q1")
    assert loaded.raw_events("q1") == corpus.raw_events("q1")
    assert loaded.queries["q1"].total_purchases == corpus.queries["q1"].total_purchases


def test_load_corpus_rejects_unknown_event_query(tmp_path):
    corpus = build_corpus([("q1", "pA", 5)])
    qpath, epath = tmp_path / "q.tsv", tmp_path / "e.tsv"
    save_queries(corpus, qpath)
    save_events(corpus, epath)
    body = epath.read_text(encoding="utf-8") + "ghost\tpX\t4\n"
    epath.write_text(body, encoding="utf-8")
    with pytest.raises(FileFormatError, match="ghost"):
        load_corpus(qpath, epath)
