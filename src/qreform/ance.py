"""Hard-negative mining for the ANCE rounds and the re-ranker's batches.

A mining pass retrieves every anchor's nearest candidates with a
bi-encoder and keeps those that are neither the anchor nor its kin
(``mining.kin_pairs``: same normalized form, co-purchased, or one shared
co-purchased neighbor apart): textually close, behaviorally unrelated
queries.  The rounds themselves run in the pipeline's ance stage, which
mines with the current retriever and then fine-tunes it on its own mined
negatives (self-learning).  The learn-from-teacher step, in which the
cross-encoder fine-tunes once on the final round's sets, runs in the
train-reranker stage, using ``build_rerank_batches``.  Only those sets
are persisted: the final round's records, each cut to the negatives the
re-ranker trains on.  The cross-encoder never retrieves; every record
carries the bi-encoder checkpoint checksum it was mined with.  A
negatives file holds one ``(anchor, negative)`` row per negative in rank
order, so an anchor with no negatives writes no rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Mapping, Sequence

from .files import read_tsv, write_tsv
from .knn import build_index
from .training import RerankBatch


@dataclass(frozen=True)
class HardNegativeRecord:
    """One anchor's mined negatives for one round, with model provenance."""

    anchor: str
    negatives: tuple[str, ...]
    round_index: int
    source_checkpoint: str

    def __post_init__(self) -> None:
        if self.anchor in self.negatives:
            raise ValueError(f"anchor {self.anchor!r} listed as its own negative")


def mine_hard_negatives(
    model,
    anchors: Sequence[str],
    candidates: Sequence[str],
    kin: Mapping[str, AbstractSet[str]],
    top_k: int = 100,
    round_index: int = 1,
) -> list[HardNegativeRecord]:
    """Retrieve top_k per anchor and drop the anchor and its kin.

    ``candidates`` are the rich queries; ``kin`` maps each query to its kin
    (symmetric), and negatives exclude kin.  Negatives keep retrieval rank
    order.  Records with empty negative lists are kept; training simply
    skips them.
    """
    index = build_index(model, candidates)
    anchor_list = sorted(anchors)
    probes = model.embed_many(anchor_list)
    ranked = index.knn_many(probes, top_k)
    records = []
    for anchor, hits in zip(anchor_list, ranked):
        partners = kin.get(anchor, ())
        kept = [
            candidate
            for candidate, _ in hits
            if candidate != anchor and candidate not in partners
        ]
        records.append(
            HardNegativeRecord(anchor, tuple(kept), round_index, index.model_checksum)
        )
    return records


def negatives_by_anchor(
    records: Sequence[HardNegativeRecord],
) -> dict[str, tuple[str, ...]]:
    return {record.anchor: record.negatives for record in records}


def build_rerank_batches(
    rerank_positives: Mapping[str, tuple[str, ...]],
    records: Sequence[HardNegativeRecord],
) -> list[RerankBatch]:
    """Pair each anchor's positive set with all of its mined negatives."""
    by_anchor = negatives_by_anchor(records)
    batches = []
    for anchor in sorted(rerank_positives):
        positives = rerank_positives[anchor]
        if not positives:
            continue
        negatives = by_anchor.get(anchor, ())
        batches.append(RerankBatch(anchor, tuple(positives), tuple(negatives)))
    return batches


NEGATIVES_KIND = "hard-negatives"


def save_hard_negatives(path, records: Sequence[HardNegativeRecord]) -> None:
    checksums = {record.source_checkpoint for record in records}
    rounds = {record.round_index for record in records}
    if len(checksums) > 1 or len(rounds) > 1:
        raise ValueError("one negatives file holds exactly one mining round")
    attrs = {}
    if records:
        attrs = {
            "round": records[0].round_index,
            "source_checkpoint": records[0].source_checkpoint,
        }
    rows = (
        (record.anchor, negative)
        for record in records
        for negative in record.negatives
    )
    write_tsv(path, NEGATIVES_KIND, rows, columns=("anchor", "negative"), **attrs)


def load_hard_negatives(path) -> list[HardNegativeRecord]:
    """The records of the anchors with negatives, in file order."""
    attrs, rows = read_tsv(path, NEGATIVES_KIND, has_columns=True)
    by_anchor: dict[str, list[str]] = {}
    for anchor, negative in rows:
        by_anchor.setdefault(anchor, []).append(negative)
    return [
        HardNegativeRecord(
            anchor, tuple(negatives), int(attrs["round"]), attrs["source_checkpoint"]
        )
        for anchor, negatives in by_anchor.items()
    ]
