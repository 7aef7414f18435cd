"""Purchase-log ingestion and the query universe it defines.

A behavior log is a line-delimited TSV of (query, product, purchases)
records.  Ingestion aggregates duplicate rows, applies the low-purchase
noise filter, and keeps every query it saw, including those whose events
were all filtered away: behavior-impoverished queries are exactly the
ones that need reformulations.  A record holds only what the log says
about its query: whether a query is rich depends on the threshold a
caller passes to ``rich_queries``, and its normalized form lives in the
groups file.  Co-purchase candidates come from a self-join on product,
realized as a product-keyed inverted map.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .files import FileFormatError, iter_log_lines, read_tsv, write_tsv


def canonical_pair(a: str, b: str) -> tuple[str, str]:
    """The order-free key of a query pair: its two texts, smaller first."""
    return (a, b) if a <= b else (b, a)


@dataclass
class QueryRecord:
    """One query and its total surviving purchases.

    ``query_id`` is the query's text as the log spells it; it is both the
    key and what the encoders read.
    """

    query_id: str
    total_purchases: int = 0


@dataclass(frozen=True)
class DatasetSplit:
    """Pair shards for training; any pair touching a test query is test-only."""

    train: tuple
    validation: tuple
    test: tuple
    test_query_ids: frozenset[str]


class Corpus:
    """Immutable-after-ingest store of queries and aggregated events.

    Raw (pre-filter) counts are retained because grouping by normalized
    form re-applies the purchase floor to summed counts, which can revive
    products that were individually below it.
    """

    def __init__(self, min_purchase: int) -> None:
        if min_purchase < 1:
            raise ValueError(f"min_purchase must be >= 1, got {min_purchase}")
        self.min_purchase = min_purchase
        self.queries: dict[str, QueryRecord] = {}
        self._raw_events: dict[str, dict[str, int]] = {}

    def add_row(self, query: str, product: str | None, purchases: int) -> None:
        if query not in self.queries:
            self.queries[query] = QueryRecord(query_id=query)
            self._raw_events[query] = {}
        if product is not None and purchases > 0:
            events = self._raw_events[query]
            events[product] = events.get(product, 0) + purchases

    def finalize(self) -> None:
        for query_id, record in self.queries.items():
            record.total_purchases = sum(self.events(query_id).values())

    def raw_events(self, query_id: str) -> Mapping[str, int]:
        """Aggregated counts before the min_purchase filter."""
        return self._raw_events[query_id]

    def events(self, query_id: str) -> dict[str, int]:
        """Aggregated counts with sub-threshold products dropped."""
        return {
            product: count
            for product, count in self._raw_events[query_id].items()
            if count >= self.min_purchase
        }


def ingest_log(path, min_purchase: int = 2) -> Corpus:
    """Parse a behavior log into a corpus.

    Duplicate (query, product) rows are summed before the filter runs.
    A purchases value of 0 registers the query without an event, so
    zero-behavior queries still enter the universe.  Malformed rows fail
    fast with their line number.
    """
    corpus = Corpus(min_purchase)
    path = Path(path)
    for lineno, line in iter_log_lines(path):
        fields = line.split("\t")
        if len(fields) != 3:
            raise FileFormatError(
                f"{path}:{lineno}: expected 3 tab-separated fields, got {len(fields)}"
            )
        query, product, raw_count = fields
        if not query:
            raise FileFormatError(f"{path}:{lineno}: empty query field")
        try:
            purchases = int(raw_count)
        except ValueError:
            raise FileFormatError(
                f"{path}:{lineno}: purchases must be an integer, got {raw_count!r}"
            ) from None
        if purchases < 0:
            raise FileFormatError(f"{path}:{lineno}: negative purchase count {purchases}")
        if purchases > 0 and not product:
            raise FileFormatError(f"{path}:{lineno}: empty product field")
        corpus.add_row(query, product or None, purchases)
    corpus.finalize()
    return corpus


def rich_queries(corpus: Corpus, rich_threshold: int) -> list[str]:
    """The sorted queries with at least ``rich_threshold`` surviving
    purchases: the pool that reformulations are drawn from."""
    return sorted(
        query_id
        for query_id, record in corpus.queries.items()
        if record.total_purchases >= rich_threshold
    )


def copurchase_from_product_sets(
    product_sets: Mapping[str, Iterable[str]]
) -> list[tuple[str, str]]:
    """Self-join arbitrary keyed product sets on product.

    Works over query ids or group keys alike; one canonical key pair per
    unordered pair sharing at least one product, sorted output.
    """
    by_product: dict[str, list[str]] = {}
    for key in sorted(product_sets):
        for product in product_sets[key]:
            by_product.setdefault(product, []).append(key)
    shared: set[tuple[str, str]] = set()
    for keys in by_product.values():
        for i, key_a in enumerate(keys):
            for key_b in keys[i + 1:]:
                shared.add(canonical_pair(key_a, key_b))
    return sorted(shared)


def make_split(pairs: Sequence, n_test_queries: int, seed: int) -> DatasetSplit:
    """Carve test queries out of mined pairs, then split the rest 90/10.

    ``pairs`` only needs ``source`` and ``target`` attributes.  Every pair
    touching a sampled test query lands in the test shard and nowhere
    else; the remainder is shuffled by ``seed`` and split, so the result
    is deterministic for fixed inputs.
    """
    universe = sorted({p.source for p in pairs} | {p.target for p in pairs})
    if n_test_queries >= len(universe):
        raise ValueError(
            f"cannot hold out {n_test_queries} test queries from "
            f"{len(universe)} distinct queries"
        )
    rng = random.Random(seed)
    test_ids = frozenset(rng.sample(universe, n_test_queries))

    ordered = sorted(pairs, key=_pair_order)
    test = [p for p in ordered if p.source in test_ids or p.target in test_ids]
    rest = [p for p in ordered if p.source not in test_ids and p.target not in test_ids]
    train, validation = split_validation(rest, rng)
    return DatasetSplit(tuple(train), tuple(validation), tuple(test), test_ids)


def _pair_order(pair) -> tuple[str, str]:
    return (pair.source, pair.target)


def split_validation(pairs: Sequence, rng: random.Random) -> tuple[list, list]:
    """Shuffle pairs with ``rng`` and cut a tenth off as validation.

    Returns (train, validation), each sorted by (source, target).  The
    input order does not matter; empty input gives two empty shards.
    """
    rest = sorted(pairs, key=_pair_order)
    rng.shuffle(rest)
    n_validation = round(len(rest) / 10)
    return (
        sorted(rest[n_validation:], key=_pair_order),
        sorted(rest[:n_validation], key=_pair_order),
    )


QUERIES_KIND = "queries"
EVENTS_KIND = "events"


def save_queries(corpus: Corpus, path) -> None:
    """Persist the sorted query ids as a versioned TSV (``load_corpus``
    pairs it with an events file written by ``save_events``)."""
    write_tsv(
        path,
        QUERIES_KIND,
        ((query_id,) for query_id in sorted(corpus.queries)),
        columns=("query_id",),
        min_purchase=corpus.min_purchase,
    )


def save_events(corpus: Corpus, path) -> None:
    """Persist the events as a versioned TSV of raw pre-filter counts."""
    event_rows = []
    for query_id in sorted(corpus.queries):
        for product, count in sorted(corpus.raw_events(query_id).items()):
            event_rows.append((query_id, product, count))
    write_tsv(
        path,
        EVENTS_KIND,
        event_rows,
        columns=("query_id", "product_id", "purchases"),
        min_purchase=corpus.min_purchase,
    )


def load_corpus(queries_path, events_path) -> Corpus:
    q_attrs, query_rows = read_tsv(queries_path, QUERIES_KIND, has_columns=True)
    e_attrs, event_rows = read_tsv(events_path, EVENTS_KIND, has_columns=True)
    if q_attrs.get("min_purchase") != e_attrs.get("min_purchase"):
        raise FileFormatError(
            f"{queries_path} and {events_path} disagree on min_purchase"
        )
    corpus = Corpus(int(q_attrs["min_purchase"]))
    for (query_id,) in query_rows:
        corpus.queries[query_id] = QueryRecord(query_id=query_id)
        corpus._raw_events[query_id] = {}
    for query_id, product, count in event_rows:
        if query_id not in corpus.queries:
            raise FileFormatError(
                f"{events_path}: event for unknown query {query_id!r}"
            )
        corpus._raw_events[query_id][product] = int(count)
    corpus.finalize()
    return corpus
