"""Purchase-log ingestion and the query universe it defines.

A behavior log is a line-delimited TSV of (query, product, purchases)
records.  Ingestion aggregates duplicate rows, applies the low-purchase
noise filter, and keeps every query it saw, including those whose events
were all filtered away: behavior-impoverished queries are exactly the
ones that need reformulations.  Co-purchase candidates come from a
self-join on product, realized as a product-keyed inverted map.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .files import FileFormatError, iter_log_lines, read_tsv, write_tsv
from .training import canonical_pair

TIER_RICH = "rich"
TIER_IMPOVERISHED = "impoverished"


@dataclass
class QueryRecord:
    """One query with its aggregate behavior and derived annotations.

    ``normalized_text`` is filled by the normalizer and ``traffic_tier``
    by the rich/impoverished split; both stay None until then.
    """

    query_id: str
    raw_text: str
    total_purchases: int = 0
    normalized_text: str | None = None
    traffic_tier: str | None = None


@dataclass(frozen=True)
class CoPurchaseRecord:
    """Unordered query pair sharing at least one surviving product."""

    query_a: str
    query_b: str
    shared_products: int


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
        self.rich_threshold: int | None = None
        self.queries: dict[str, QueryRecord] = {}
        self._raw_events: dict[str, dict[str, int]] = {}

    def add_row(self, query: str, product: str | None, purchases: int) -> None:
        if query not in self.queries:
            self.queries[query] = QueryRecord(query_id=query, raw_text=query)
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

    def products(self, query_id: str) -> frozenset[str]:
        return frozenset(self.events(query_id))


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


def split_rich_impoverished(
    corpus: Corpus, rich_threshold: int
) -> tuple[set[str], set[str]]:
    """Partition queries by total surviving purchases; annotates records."""
    if rich_threshold < 1:
        raise ValueError(
            "rich_threshold must be >= 1: at 0 every query is rich and there "
            "is nothing to reformulate"
        )
    rich: set[str] = set()
    impoverished: set[str] = set()
    for query_id, record in corpus.queries.items():
        if record.total_purchases >= rich_threshold:
            record.traffic_tier = TIER_RICH
            rich.add(query_id)
        else:
            record.traffic_tier = TIER_IMPOVERISHED
            impoverished.add(query_id)
    corpus.rich_threshold = rich_threshold
    return rich, impoverished


def copurchase_from_product_sets(
    product_sets: Mapping[str, Iterable[str]]
) -> list[CoPurchaseRecord]:
    """Self-join arbitrary keyed product sets on product.

    Works over query ids or group keys alike; one undirected record per
    unordered pair, ordered (query_a < query_b), sorted output.
    """
    by_product: dict[str, list[str]] = {}
    for key in sorted(product_sets):
        for product in product_sets[key]:
            by_product.setdefault(product, []).append(key)
    shared: dict[tuple[str, str], int] = {}
    for keys in by_product.values():
        for i, key_a in enumerate(keys):
            for key_b in keys[i + 1:]:
                pair = canonical_pair(key_a, key_b)
                shared[pair] = shared.get(pair, 0) + 1
    return [
        CoPurchaseRecord(a, b, count) for (a, b), count in sorted(shared.items())
    ]


def build_copurchase_pairs(corpus: Corpus) -> list[CoPurchaseRecord]:
    """Co-purchase pairs over individual queries (post-filter behavior)."""
    return copurchase_from_product_sets(
        {query_id: corpus.products(query_id) for query_id in corpus.queries}
    )


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
_TIER_NONE = "none"


def save_corpus(corpus: Corpus, queries_path, events_path) -> None:
    """Persist as two versioned TSVs; events hold raw pre-filter counts."""
    attrs = {"min_purchase": corpus.min_purchase}
    if corpus.rich_threshold is not None:
        attrs["rich_threshold"] = corpus.rich_threshold
    query_rows = []
    for query_id in sorted(corpus.queries):
        record = corpus.queries[query_id]
        query_rows.append(
            (
                record.query_id,
                record.raw_text,
                record.normalized_text if record.normalized_text is not None else "",
                "1" if record.normalized_text is not None else "0",
                record.traffic_tier or _TIER_NONE,
            )
        )
    write_tsv(
        queries_path,
        QUERIES_KIND,
        query_rows,
        columns=("query_id", "raw_text", "normalized_text", "norm_set", "tier"),
        **attrs,
    )
    event_rows = []
    for query_id in sorted(corpus.queries):
        for product, count in sorted(corpus.raw_events(query_id).items()):
            event_rows.append((query_id, product, count))
    write_tsv(
        events_path,
        EVENTS_KIND,
        event_rows,
        columns=("query_id", "product_id", "purchases"),
        **attrs,
    )


def load_corpus(queries_path, events_path) -> Corpus:
    q_attrs, query_rows = read_tsv(queries_path, QUERIES_KIND, has_columns=True)
    e_attrs, event_rows = read_tsv(events_path, EVENTS_KIND, has_columns=True)
    if q_attrs.get("min_purchase") != e_attrs.get("min_purchase"):
        raise FileFormatError(
            f"{queries_path} and {events_path} disagree on min_purchase"
        )
    corpus = Corpus(int(q_attrs["min_purchase"]))
    if "rich_threshold" in q_attrs:
        corpus.rich_threshold = int(q_attrs["rich_threshold"])
    for row in query_rows:
        if len(row) != 5:
            raise FileFormatError(f"{queries_path}: bad query row {row!r}")
        query_id, raw_text, normalized, norm_set, tier = row
        record = QueryRecord(query_id=query_id, raw_text=raw_text)
        if norm_set == "1":
            record.normalized_text = normalized
        if tier != _TIER_NONE:
            record.traffic_tier = tier
        corpus.queries[query_id] = record
        corpus._raw_events[query_id] = {}
    for row in event_rows:
        if len(row) != 3:
            raise FileFormatError(f"{events_path}: bad event row {row!r}")
        query_id, product, count = row
        if query_id not in corpus.queries:
            raise FileFormatError(
                f"{events_path}: event for unknown query {query_id!r}"
            )
        corpus._raw_events[query_id][product] = int(count)
    corpus.finalize()
    return corpus
