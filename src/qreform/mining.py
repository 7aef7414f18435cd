"""Query-query relevance from purchase-count distributions.

Retrieval training weights each positive pair by a symmetric
divergence-derived importance (1 - JSD), re-ranking regresses onto the
directed one-sided variant (1 - KLD of the target distribution against
the pair mixture).  All divergences use base-2 logarithms so every
score lives in [0, 1].  The kin relation, which shields related queries
from negative sampling, is unscored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .corpus import canonical_pair
from .files import read_tsv, write_tsv
from .normalize import QueryGroup

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


@dataclass(frozen=True)
class QueryPair:
    """Undirected mined pair carrying both directed re-ranking targets.

    ``importance`` is symmetric under swapping source and target;
    ``rerank_target_fwd`` scores target given source, ``rerank_target_rev``
    the opposite direction.  A pair file holds one row per pair with these
    five fields.
    """

    source: str
    target: str
    importance: float
    rerank_target_fwd: float
    rerank_target_rev: float


_BASELINE_KEEP_FRACTION = 0.3
# The least importance a mined pair needs to be proposed.
MINING_FLOOR = 0.01


def mine_pairs(
    groups: Sequence[QueryGroup],
    copurchase: Iterable[tuple[str, str]],
    min_purchase: int,
    floor: float = MINING_FLOOR,
) -> list[QueryPair]:
    """Score co-purchase pairs of query groups and expand to member queries.

    ``copurchase`` holds pairs of group keys (``normalized_text``), and
    ``min_purchase`` is the corpus's: a group's behavior counts only the
    products bought at least that often.
    Each surviving group pair is scored once on the groups' filtered
    behavior and then expanded to every cross pair of member queries, so
    the encoders see surface variation while sharing one behavioral score.
    Every pair with importance >= floor is kept.
    """
    if not 0.0 <= floor < 1.0:
        raise ValueError(f"floor must be in [0, 1), got {floor}")

    by_key = {group.normalized_text: group for group in groups}
    dists: dict[str, BehaviorDistribution] = {}
    for key, group in by_key.items():
        counts = group.surviving_counts(min_purchase)
        if counts:
            dists[key] = BehaviorDistribution.from_counts(counts)

    pairs: list[QueryPair] = []
    for key_a, key_b in copurchase:
        if key_a not in dists or key_b not in dists:
            continue
        da, db = dists[key_a], dists[key_b]
        weight = importance(da, db)
        if weight < floor:
            continue
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
                pairs.append(QueryPair(src, tgt, weight, pair_fwd, pair_rev))

    # Same-group members are surface variants of one intent: perfect pairs.
    for key, group in by_key.items():
        if key not in dists:
            continue
        members = sorted(group.member_query_ids)
        for i, member_a in enumerate(members):
            for member_b in members[i + 1:]:
                pairs.append(QueryPair(member_a, member_b, 1.0, 1.0, 1.0))

    pairs.sort(key=lambda p: (p.source, p.target))
    return pairs


def kin_pairs(
    groups: Sequence[QueryGroup], copurchase: Iterable[tuple[str, str]]
) -> list[tuple[str, str]]:
    """Member query pairs whose groups are related, as sorted canonical keys.

    Two groups are kin when they are the same group, are co-purchased, or
    share a co-purchased neighbor.  Sparse queries explore so little of
    the catalog that two related queries can share zero sampled products
    while both overlap the same third group, and members of one group are
    surface variants of one intent, purchases or not.  Kin carry no
    measurable importance, but negative sampling must never draw them.
    """
    members = {group.normalized_text: group.member_query_ids for group in groups}
    near: dict[str, set[str]] = {key: {key} for key in members}
    for key_a, key_b in copurchase:
        near[key_a].add(key_b)
        near[key_b].add(key_a)
    kin_groups = {
        (key_a, key_b)
        for keys in near.values()
        for key_a in keys
        for key_b in keys
        if key_a <= key_b
    }
    pairs = {
        canonical_pair(member_a, member_b)
        for key_a, key_b in kin_groups
        for member_a in members[key_a]
        for member_b in members[key_b]
        if member_a != member_b
    }
    return sorted(pairs)


def baseline_top30(pairs: Sequence[QueryPair]) -> list[QueryPair]:
    """The unweighted baseline's pairs: per-query top-30% selection.

    Every query ranks its incident pairs by importance (ties broken by
    pair key) and keeps the top ceil(0.3 * n); a pair survives only if
    both endpoints keep it, so a query with 10 pairs contributes exactly
    3.  Survivors get importance 1 for unweighted training.  Pass it the
    pairs ``mine_pairs`` scores with no floor.
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
        n_keep = math.ceil(_BASELINE_KEEP_FRACTION * len(ranked))
        for i in ranked[:n_keep]:
            kept_count[i] = kept_count.get(i, 0) + 1
    return [
        QueryPair(p.source, p.target, 1.0, p.rerank_target_fwd, p.rerank_target_rev)
        for i, p in enumerate(pairs)
        if kept_count.get(i, 0) == 2
    ]


PAIRS_KIND = "pairs"
_PAIR_COLUMNS = ("source", "target", "importance", "rerank_target_fwd", "rerank_target_rev")


def save_pairs(path, pairs: Sequence[QueryPair], **attrs) -> None:
    rows = (
        (
            p.source,
            p.target,
            f"{p.importance:.6f}",
            f"{p.rerank_target_fwd:.6f}",
            f"{p.rerank_target_rev:.6f}",
        )
        for p in pairs
    )
    write_tsv(path, PAIRS_KIND, rows, columns=_PAIR_COLUMNS, **attrs)


def load_pairs(path) -> list[QueryPair]:
    _, rows = read_tsv(path, PAIRS_KIND, has_columns=True)
    return [
        QueryPair(source, target, float(weight), float(fwd), float(rev))
        for source, target, weight, fwd, rev in rows
    ]


KIN_KIND = "kin"


def save_kin(path, pairs: Iterable[tuple[str, str]]) -> None:
    write_tsv(path, KIN_KIND, pairs, columns=("source", "target"))


def load_kin(path) -> dict[str, set[str]]:
    """Each query's kin from a ``save_kin`` file, in both directions."""
    _, rows = read_tsv(path, KIN_KIND, has_columns=True)
    kin: dict[str, set[str]] = {}
    for source, target in rows:
        kin.setdefault(source, set()).add(target)
        kin.setdefault(target, set()).add(source)
    return kin
