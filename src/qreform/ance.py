"""Hard-negative mining for the ANCE rounds and the re-ranker's batches.

A mining pass retrieves every anchor's nearest candidates with a
bi-encoder and keeps those that share no co-purchase with the anchor (and
are not the anchor or one of its normalization duplicates): textually
close, behaviorally unrelated queries.  The rounds themselves run in the
pipeline's ance stage, which mines with the current retriever and then
fine-tunes it on its own mined negatives (self-learning).  The
learn-from-teacher step, in which the cross-encoder fine-tunes once on the
final round's sets, runs in the train-reranker stage from the persisted
files, using ``build_rerank_batches``.  The cross-encoder never retrieves;
every record carries the bi-encoder checkpoint checksum it was mined with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .encoders import params_checksum
from .files import read_tsv, write_tsv
from .knn import build_index
from .training import RerankBatch, canonical_pair


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
    candidates: Mapping[str, str],
    copurchased: frozenset[tuple[str, str]],
    top_k: int = 100,
    normalized: Mapping[str, str] | None = None,
    round_index: int = 1,
) -> list[HardNegativeRecord]:
    """Retrieve top_k per anchor, subtract co-purchase partners and twins.

    ``candidates`` maps candidate query_id to raw text (the rich pool);
    ``copurchased`` holds canonically ordered co-purchased id pairs;
    ``normalized`` (id to normalized form) enables duplicate exclusion.
    Negatives keep retrieval rank order.  Records with empty negative
    lists are kept; training simply skips them.
    """
    if not candidates:
        raise ValueError("hard-negative mining needs a non-empty candidate set")
    index = build_index(model, candidates)
    checksum = params_checksum(model)
    anchor_list = sorted(anchors)
    probes = model.embed_many(anchor_list)
    ranked = index.knn_many(probes, top_k)
    records = []
    for anchor, hits in zip(anchor_list, ranked):
        anchor_norm = normalized.get(anchor) if normalized is not None else None
        kept = []
        for candidate, _ in hits:
            if candidate == anchor:
                continue
            if canonical_pair(anchor, candidate) in copurchased:
                continue
            if (
                anchor_norm is not None
                and normalized.get(candidate) == anchor_norm
            ):
                continue
            kept.append(candidate)
        records.append(
            HardNegativeRecord(anchor, tuple(kept), round_index, checksum)
        )
    return records


def negatives_by_anchor(
    records: Sequence[HardNegativeRecord],
) -> dict[str, tuple[str, ...]]:
    return {record.anchor: record.negatives for record in records}


def build_rerank_batches(
    rerank_positives: Mapping[str, tuple[tuple[str, float], ...]],
    records: Sequence[HardNegativeRecord],
    hard_negative_cap: int = 8,
) -> list[RerankBatch]:
    """Pair each anchor's positive set with its mined negatives (capped)."""
    by_anchor = negatives_by_anchor(records)
    batches = []
    for anchor in sorted(rerank_positives):
        positives = rerank_positives[anchor]
        if not positives:
            continue
        negatives = by_anchor.get(anchor, ())[:hard_negative_cap]
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
        (record.anchor, record.round_index, ",".join(record.negatives))
        for record in records
    )
    write_tsv(
        path, NEGATIVES_KIND, rows, columns=("anchor", "round", "negatives"), **attrs
    )


def load_hard_negatives(path) -> list[HardNegativeRecord]:
    attrs, rows = read_tsv(path, NEGATIVES_KIND, has_columns=True)
    checksum = attrs.get("source_checkpoint", "")
    records = []
    for row in rows:
        anchor, round_index = row[0], int(row[1])
        negatives = tuple(row[2].split(",")) if len(row) > 2 and row[2] else ()
        records.append(HardNegativeRecord(anchor, negatives, round_index, checksum))
    return records
