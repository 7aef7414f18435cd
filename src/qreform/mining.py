"""Query-query relevance from purchase-count distributions.

Retrieval training weights each positive pair by a symmetric
divergence-derived importance (1 - JSD), re-ranking regresses onto the
directed one-sided variant (1 - KLD of the target distribution against
the pair mixture), and the legacy set-overlap score is kept around as the
baseline it replaces.  All divergences use base-2 logarithms so every
score lives in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .files import read_tsv, write_tsv
from .normalize import QueryGroup
from .training import canonical_pair

_NORM_TOL = 1e-9


class DistributionError(ValueError):
    """Raised for inputs that are not valid probability distributions."""


@dataclass(frozen=True)
class BehaviorDistribution:
    """Normalized purchase-count distribution over products for one query."""

    probs: Mapping[str, float]

    def __post_init__(self) -> None:
        if not self.probs:
            raise DistributionError("distribution has empty support")
        total = 0.0
        for product, p in self.probs.items():
            if p <= 0.0:
                raise DistributionError(f"probability for {product!r} is not positive")
            total += p
        if abs(total - 1.0) > _NORM_TOL:
            raise DistributionError(f"probabilities sum to {total!r}, not 1")

    @classmethod
    def from_counts(cls, counts: Mapping[str, float]) -> "BehaviorDistribution":
        total = float(sum(counts.values()))
        if total <= 0.0:
            raise DistributionError("counts sum to zero")
        return cls({product: count / total for product, count in counts.items() if count > 0})

    def support(self) -> frozenset[str]:
        return frozenset(self.probs)


def _kld2_against_mixture(d: BehaviorDistribution, mixture: Mapping[str, float]) -> float:
    """KLD(d || mixture) in bits; mixture must cover d's support."""
    total = 0.0
    for product, p in d.probs.items():
        total += p * math.log2(p / mixture[product])
    return total


def _mixture(d1: BehaviorDistribution, d2: BehaviorDistribution) -> dict[str, float]:
    m: dict[str, float] = {}
    for product in d1.support() | d2.support():
        m[product] = (d1.probs.get(product, 0.0) + d2.probs.get(product, 0.0)) / 2.0
    return m


def jsd(d1: BehaviorDistribution, d2: BehaviorDistribution) -> float:
    """Jensen-Shannon divergence in bits over the union support; in [0, 1]."""
    m = _mixture(d1, d2)
    value = 0.5 * _kld2_against_mixture(d1, m) + 0.5 * _kld2_against_mixture(d2, m)
    return min(max(value, 0.0), 1.0)


def importance(d1: BehaviorDistribution, d2: BehaviorDistribution) -> float:
    """Symmetric pair weight for retrieval training: 1 - jsd."""
    return 1.0 - jsd(d1, d2)


def rerank_target(d_source: BehaviorDistribution, d_target: BehaviorDistribution) -> float:
    """Directed relevance target: 1 - KLD(target || mixture), in bits.

    Keeps only the target-conditioned half of the JSD decomposition, so the
    score reacts to the target's products falling outside the source's
    distribution but not the other way around.
    """
    m = _mixture(d_source, d_target)
    value = 1.0 - _kld2_against_mixture(d_target, m)
    return min(max(value, 0.0), 1.0)


def legacy_score(pp1: frozenset[str] | set[str], pp2: frozenset[str] | set[str]) -> float:
    """Set-overlap relevance used by the previous mining generation.

    (|A∩B| / min(|A|, |B|)) * (|A∩B| / |A∪B|).  Blind to how purchases are
    distributed inside the sets, which is the pathology the divergence
    scores fix.
    """
    if not pp1 or not pp2:
        raise ValueError("legacy_score requires non-empty product sets")
    inter = len(pp1 & pp2)
    union = len(pp1 | pp2)
    return (inter / min(len(pp1), len(pp2))) * (inter / union)


@dataclass(frozen=True)
class QueryPair:
    """Undirected mined pair carrying both directed re-ranking targets.

    ``importance`` is symmetric under swapping source and target;
    ``rerank_target_fwd`` scores target given source, ``rerank_target_rev``
    the opposite direction.  ``co_purchases`` counts distinct shared
    products that survive the purchase filter at the behavior level the
    pair was mined from.
    """

    source: str
    target: str
    importance: float
    rerank_target_fwd: float
    rerank_target_rev: float
    co_purchases: int


MODE_PROPOSED = "proposed"
MODE_BASELINE_TOP30 = "baseline_top30"
_BASELINE_KEEP_FRACTION = 0.3


def _group_surviving_counts(group: QueryGroup, min_purchase: int) -> dict[str, int]:
    return {
        product: count
        for product, count in group.aggregated_counts.items()
        if count >= min_purchase
    }


def mine_pairs(
    groups: Sequence[QueryGroup],
    copurchase: Iterable,
    floor: float = 0.01,
    mode: str = MODE_PROPOSED,
    min_purchase: int = 2,
) -> list[QueryPair]:
    """Score co-purchase pairs of query groups and expand to member queries.

    ``copurchase`` holds records over group keys (``normalized_text``).
    Each surviving group pair is scored once on the groups' filtered
    behavior and then expanded to every cross pair of member queries, so
    the encoders see surface variation while sharing one behavioral score.

    ``proposed`` keeps every pair with importance >= floor.
    ``baseline_top30`` ranks each query's pairs by importance, keeps a
    pair only when both endpoints rank it inside their own top 30%, and
    forces importance to 1 for unweighted training.
    """
    if not 0.0 <= floor < 1.0:
        raise ValueError(f"floor must be in [0, 1), got {floor}")
    if mode not in (MODE_PROPOSED, MODE_BASELINE_TOP30):
        raise ValueError(f"unknown mining mode {mode!r}")

    by_key = {group.normalized_text: group for group in groups}
    dists: dict[str, BehaviorDistribution] = {}
    survivors: dict[str, dict[str, int]] = {}
    for key, group in by_key.items():
        counts = _group_surviving_counts(group, min_purchase)
        if counts:
            survivors[key] = counts
            dists[key] = BehaviorDistribution.from_counts(counts)

    pairs: list[QueryPair] = []
    for record in copurchase:
        key_a, key_b = record.query_a, record.query_b
        if key_a not in dists or key_b not in dists:
            continue
        da, db = dists[key_a], dists[key_b]
        weight = importance(da, db)
        if mode == MODE_PROPOSED and weight < floor:
            continue
        shared = len(survivors[key_a].keys() & survivors[key_b].keys())
        fwd = rerank_target(da, db)
        rev = rerank_target(db, da)
        for member_a in by_key[key_a].member_query_ids:
            for member_b in by_key[key_b].member_query_ids:
                if member_a == member_b:
                    continue
                src, tgt = canonical_pair(member_a, member_b)
                if (src, tgt) == (member_a, member_b):
                    pair_fwd, pair_rev = fwd, rev
                else:
                    pair_fwd, pair_rev = rev, fwd
                pairs.append(
                    QueryPair(src, tgt, weight, pair_fwd, pair_rev, shared)
                )

    # Same-group members are surface variants of one intent: perfect pairs.
    for key, group in by_key.items():
        if key not in dists:
            continue
        members = sorted(group.member_query_ids)
        shared = len(survivors[key])
        for i, member_a in enumerate(members):
            for member_b in members[i + 1:]:
                pairs.append(QueryPair(member_a, member_b, 1.0, 1.0, 1.0, shared))

    pairs.sort(key=lambda p: (p.source, p.target))
    if mode == MODE_BASELINE_TOP30:
        pairs = _keep_top_fraction(pairs, _BASELINE_KEEP_FRACTION)
    return pairs


def kin_pairs(
    groups: Sequence[QueryGroup],
    copurchase: Iterable,
    min_purchase: int = 2,
) -> list[QueryPair]:
    """Pairs linked only through a shared co-purchase neighbor.

    Sparse queries explore so little of the catalog that two related
    queries can share zero sampled products while both overlap the same
    third group.  Such kin carry no measurable importance (the pairs
    score 0), but they must still be shielded from negative sampling, so
    the exclusion output closes the group co-purchase graph by one hop.
    """
    by_key = {group.normalized_text: group for group in groups}
    alive = {
        key
        for key, group in by_key.items()
        if _group_surviving_counts(group, min_purchase)
    }
    adjacent: dict[str, set[str]] = {}
    direct: set[tuple[str, str]] = set()
    for record in copurchase:
        key_a, key_b = record.query_a, record.query_b
        if key_a not in alive or key_b not in alive:
            continue
        adjacent.setdefault(key_a, set()).add(key_b)
        adjacent.setdefault(key_b, set()).add(key_a)
        direct.add(canonical_pair(key_a, key_b))

    two_hop: set[tuple[str, str]] = set()
    for neighbors in adjacent.values():
        ordered = sorted(neighbors)
        for i, key_a in enumerate(ordered):
            for key_b in ordered[i + 1:]:
                pair = (key_a, key_b)
                if pair not in direct:
                    two_hop.add(pair)

    pairs: list[QueryPair] = []
    for key_a, key_b in sorted(two_hop):
        for member_a in by_key[key_a].member_query_ids:
            for member_b in by_key[key_b].member_query_ids:
                if member_a == member_b:
                    continue
                src, tgt = canonical_pair(member_a, member_b)
                pairs.append(QueryPair(src, tgt, 0.0, 0.0, 0.0, 0))
    pairs.sort(key=lambda p: (p.source, p.target))
    return pairs


def _keep_top_fraction(pairs: list[QueryPair], fraction: float) -> list[QueryPair]:
    """Per-query top-fraction selection.

    Every query ranks its incident pairs by importance (ties broken by
    pair key) and keeps the top ceil(fraction * n); a pair survives only
    if both endpoints keep it, so a query with 10 pairs contributes
    exactly 3 under the default fraction.
    """
    incident: dict[str, list[int]] = {}
    for idx, pair in enumerate(pairs):
        incident.setdefault(pair.source, []).append(idx)
        incident.setdefault(pair.target, []).append(idx)
    kept_count: dict[int, int] = {}
    for indices in incident.values():
        ranked = sorted(
            indices,
            key=lambda i: (-pairs[i].importance, pairs[i].source, pairs[i].target),
        )
        n_keep = math.ceil(fraction * len(ranked))
        for i in ranked[:n_keep]:
            kept_count[i] = kept_count.get(i, 0) + 1
    return [
        QueryPair(p.source, p.target, 1.0, p.rerank_target_fwd, p.rerank_target_rev, p.co_purchases)
        for i, p in enumerate(pairs)
        if kept_count.get(i, 0) == 2
    ]


PAIRS_KIND = "pairs"
_PAIR_COLUMNS = (
    "source",
    "target",
    "importance",
    "rerank_target_fwd",
    "rerank_target_rev",
    "co_purchases",
)


def save_pairs(path, pairs: Sequence[QueryPair], **attrs) -> None:
    rows = (
        (
            p.source,
            p.target,
            f"{p.importance:.6f}",
            f"{p.rerank_target_fwd:.6f}",
            f"{p.rerank_target_rev:.6f}",
            p.co_purchases,
        )
        for p in pairs
    )
    write_tsv(path, PAIRS_KIND, rows, columns=_PAIR_COLUMNS, **attrs)


def load_pairs(path) -> list[QueryPair]:
    _, rows = read_tsv(path, PAIRS_KIND, has_columns=True)
    return [
        QueryPair(r[0], r[1], float(r[2]), float(r[3]), float(r[4]), int(r[5]))
        for r in rows
    ]
