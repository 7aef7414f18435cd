"""Behavior-distribution divergences and pair mining."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qreform.files import FileFormatError
from qreform.mining import (
    BehaviorDistribution,
    baseline_top30,
    importance,
    jsd,
    kin_pairs,
    load_kin,
    load_pairs,
    mine_pairs,
    rerank_target,
    save_kin,
    save_pairs,
)
from qreform.normalize import QueryGroup
from tests.conftest import set_overlap


def dist(**probs):
    return BehaviorDistribution(probs)


def random_dist(rng, n_products, alphabet=20):
    support = rng.choice(alphabet, size=n_products, replace=False)
    raw = rng.random(n_products) + 1e-3
    raw /= raw.sum()
    return BehaviorDistribution({f"p{i}": v for i, v in zip(support, raw)})


# --- distribution validity ---


def test_distribution_rejects_non_normalized():
    with pytest.raises(ValueError):
        BehaviorDistribution({"a": 0.7, "b": 0.7})


def test_distribution_rejects_nonpositive():
    with pytest.raises(ValueError):
        BehaviorDistribution({"a": 1.0, "b": 0.0})


def test_from_counts():
    d = BehaviorDistribution.from_counts({"a": 3, "b": 1})
    assert d.probs["a"] == pytest.approx(0.75)
    assert d.probs["b"] == pytest.approx(0.25)


# --- jsd oracle values ---


def test_jsd_identity():
    d = dist(a=0.5, b=0.5)
    assert jsd(d, d) == 0.0


def test_jsd_disjoint_is_one():
    assert jsd(dist(a=1.0), dist(b=1.0)) == pytest.approx(1.0, abs=1e-12)


def test_jsd_hand_computed():
    # m = {a: 0.75, b: 0.25}; KLD(d1||m) = log2(4/3), KLD(d2||m) =
    # 0.5*log2(2/3) + 0.5*log2(2); average of the two = 0.311278...
    value = jsd(dist(a=1.0), dist(a=0.5, b=0.5))
    assert value == pytest.approx(0.3113, abs=1e-4)
    expected = 0.5 * math.log2(4 / 3) + 0.5 * (0.5 * math.log2(2 / 3) + 0.5)
    assert value == pytest.approx(expected, abs=1e-12)


def test_importance_is_one_minus_jsd():
    d1, d2 = dist(a=1.0), dist(a=0.5, b=0.5)
    assert importance(d1, d2) == pytest.approx(1.0 - jsd(d1, d2), abs=1e-15)


# --- rerank target ---


def test_rerank_target_identity():
    d = dist(a=0.3, b=0.7)
    assert rerank_target(d, d) == pytest.approx(1.0, abs=1e-12)


def test_rerank_target_disjoint():
    assert rerank_target(dist(a=1.0), dist(b=1.0)) == pytest.approx(0.0, abs=1e-12)


def test_rerank_target_hand_computed():
    # KLD(d_target || m) with m = {a: 0.75, b: 0.25} and d_target = {a: 1}
    # is log2(1/0.75) ~ 0.4150, so the target is ~0.5850.
    src, tgt = dist(a=0.5, b=0.5), dist(a=1.0)
    assert rerank_target(src, tgt) == pytest.approx(0.5850, abs=1e-4)
    assert rerank_target(tgt, src) != pytest.approx(rerank_target(src, tgt), abs=1e-6)


# --- the set-overlap trap ---


def test_containment_beats_importance():
    # Nested product sets: set overlap stays at |pp1|/|pp2| while importance of
    # maximally skewed distributions over the same sets is much smaller.
    small = {"a", "b"}
    large = {f"p{i}" for i in range(8)} | small
    skew_small = BehaviorDistribution.from_counts({"a": 99, "b": 1})
    skew_large = BehaviorDistribution.from_counts(
        {p: 99 if p.startswith("p") else 1 for p in large}
    )
    legacy = set_overlap(small, large)
    imp = importance(skew_small, skew_large)
    assert legacy == pytest.approx(len(small) / len(large), abs=1e-12)
    assert imp < legacy


# --- fuzzed invariants ---


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_jsd_symmetry_and_bounds(seed):
    rng = np.random.default_rng(seed)
    d1 = random_dist(rng, int(rng.integers(1, 8)))
    d2 = random_dist(rng, int(rng.integers(1, 8)))
    forward, backward = jsd(d1, d2), jsd(d2, d1)
    assert abs(forward - backward) <= 1e-12
    assert 0.0 <= forward <= 1.0
    assert 0.0 <= rerank_target(d1, d2) <= 1.0


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_jsd_decomposition(seed):
    rng = np.random.default_rng(seed)
    d1 = random_dist(rng, int(rng.integers(1, 8)))
    d2 = random_dist(rng, int(rng.integers(1, 8)))
    halves = 0.5 * (1.0 - rerank_target(d2, d1)) + 0.5 * (1.0 - rerank_target(d1, d2))
    assert jsd(d1, d2) == pytest.approx(halves, abs=1e-12)


# --- mining ---


def group(name, members, counts):
    return QueryGroup(name, tuple(members), dict(counts))


def simple_world():
    # Three groups: ga/gb share products heavily, gc overlaps ga a little.
    groups = [
        group("ga", ["q1", "q2"], {"pA": 10, "pB": 10}),
        group("gb", ["q3"], {"pA": 9, "pB": 11}),
        group("gc", ["q4"], {"pB": 2, "pC": 18}),
    ]
    copurchase = [("ga", "gb"), ("ga", "gc"), ("gb", "gc")]
    return groups, copurchase


def test_mine_proposed_emits_expanded_members():
    groups, copurchase = simple_world()
    pairs = mine_pairs(groups, copurchase, floor=0.0)
    keys = {(p.source, p.target) for p in pairs}
    # ga-gb expands to q1/q2 x q3, plus the within-group pair q1-q2.
    assert ("q1", "q3") in keys and ("q2", "q3") in keys
    assert ("q1", "q2") in keys
    assert ("q3", "q4") in keys


def test_mine_within_group_pairs_have_unit_importance():
    groups, copurchase = simple_world()
    pairs = {(p.source, p.target): p for p in mine_pairs(groups, copurchase, floor=0.0)}
    within = pairs[("q1", "q2")]
    assert within.importance == 1.0
    assert within.rerank_target_fwd == 1.0
    assert within.rerank_target_rev == 1.0


def test_mine_importance_matches_group_distributions():
    groups, copurchase = simple_world()
    pairs = {(p.source, p.target): p for p in mine_pairs(groups, copurchase, floor=0.0)}
    da = BehaviorDistribution.from_counts({"pA": 10, "pB": 10})
    db = BehaviorDistribution.from_counts({"pA": 9, "pB": 11})
    assert pairs[("q1", "q3")].importance == pytest.approx(
        importance(da, db), abs=1e-6
    )


def test_mine_floor_excludes_weak_pairs():
    groups, copurchase = simple_world()
    strong = mine_pairs(groups, copurchase, floor=0.0)
    floored = mine_pairs(groups, copurchase, floor=0.5)
    assert {(p.source, p.target) for p in floored} < {
        (p.source, p.target) for p in strong
    }
    assert all(p.importance >= 0.5 for p in floored)


def test_mine_floor_validation():
    groups, copurchase = simple_world()
    with pytest.raises(ValueError, match="floor"):
        mine_pairs(groups, copurchase, floor=1.0)
    with pytest.raises(ValueError, match="floor"):
        mine_pairs(groups, copurchase, floor=-0.1)


def test_mine_baseline_top30_keeps_top_ranked_and_forces_unit_weight():
    # Hub group g0 co-purchases with 10 partners of decreasing similarity;
    # each partner has only the hub pair, so the hub's own top-30% cut
    # (ceil(0.3 * 10) = 3) decides survival.
    groups = [group("g0", ["h"], {"pA": 50, "pB": 50})]
    copurchase = []
    for i in range(10):
        counts = {"pA": 50 + i * 10, "pB": 50 - i * 5, f"x{i}": 5 + i * 12}
        groups.append(group(f"g{i + 1}", [f"q{i + 1}"], counts))
        copurchase.append(("g0", f"g{i + 1}"))
    pairs = baseline_top30(mine_pairs(groups, copurchase, floor=0.0))
    hub_pairs = [p for p in pairs if "h" in (p.source, p.target)]
    assert len(hub_pairs) == 3
    assert all(p.importance == 1.0 for p in hub_pairs)


def test_mine_proposed_order_invariance():
    groups, copurchase = simple_world()
    forward = mine_pairs(groups, copurchase, floor=0.0)
    backward = mine_pairs(list(reversed(groups)), list(reversed(copurchase)), floor=0.0)
    assert forward == backward


def test_mine_output_sorted():
    groups, copurchase = simple_world()
    pairs = mine_pairs(groups, copurchase, floor=0.0)
    keys = [(p.source, p.target) for p in pairs]
    assert keys == sorted(keys)
    assert all(p.source < p.target for p in pairs)


def test_pairs_file_round_trip(tmp_path):
    groups, copurchase = simple_world()
    pairs = mine_pairs(groups, copurchase, floor=0.0)
    path = tmp_path / "pairs.tsv"
    save_pairs(path, pairs, mode="proposed")
    loaded = load_pairs(path)
    assert [(p.source, p.target) for p in loaded] == [
        (p.source, p.target) for p in pairs
    ]
    for a, b in zip(loaded, pairs):
        assert a.importance == pytest.approx(b.importance, abs=1e-6)
        assert a.rerank_target_fwd == pytest.approx(b.rerank_target_fwd, abs=1e-6)
        assert a.rerank_target_rev == pytest.approx(b.rerank_target_rev, abs=1e-6)


# --- kin ---


def chain_world():
    # A chain of co-purchased groups: g1 - g2 - g3 - g4, and a lone g5
    # whose two members bought nothing.
    groups = [
        group("g1", ["a1", "a2"], {"pA": 3}),
        group("g2", ["b1"], {"pA": 3, "pB": 3}),
        group("g3", ["c1"], {"pB": 3, "pC": 3}),
        group("g4", ["d1"], {"pC": 3}),
        group("g5", ["e1", "e2"], {}),
    ]
    copurchase = [("g1", "g2"), ("g2", "g3"), ("g3", "g4")]
    return groups, copurchase


def test_kin_same_group_even_without_purchases():
    kin = set(kin_pairs(*chain_world()))
    assert ("a1", "a2") in kin
    assert ("e1", "e2") in kin
    assert {pair for pair in kin if {"e1", "e2"} & set(pair)} == {("e1", "e2")}


def test_kin_direct_link():
    kin = set(kin_pairs(*chain_world()))
    assert {("a1", "b1"), ("a2", "b1"), ("b1", "c1"), ("c1", "d1")} <= kin


def test_kin_two_hops_but_not_three():
    kin = set(kin_pairs(*chain_world()))
    # g1 and g3 share the neighbor g2; g2 and g4 share g3.
    assert {("a1", "c1"), ("a2", "c1"), ("b1", "d1")} <= kin
    # g1 and g4 are three hops apart.
    assert ("a1", "d1") not in kin and ("a2", "d1") not in kin


def test_kin_expands_members_in_canonical_order():
    groups = [group("gx", ["z", "m"], {"pA": 3}), group("gy", ["a"], {"pA": 3})]
    assert kin_pairs(groups, [("gx", "gy")]) == [("a", "m"), ("a", "z"), ("m", "z")]


def test_kin_order_invariance():
    groups, copurchase = chain_world()
    reversed_pairs = [(b, a) for a, b in reversed(copurchase)]
    assert kin_pairs(groups, copurchase) == kin_pairs(
        list(reversed(groups)), reversed_pairs
    )


def test_kin_file_round_trip_is_symmetric(tmp_path):
    path = tmp_path / "kin.tsv"
    save_kin(path, kin_pairs(*chain_world()))
    kin = load_kin(path)
    assert kin["b1"] == {"a1", "a2", "c1", "d1"}
    assert all(query in kin[other] for query, others in kin.items() for other in others)


def test_kin_reader_rejects_a_pairs_file(tmp_path):
    groups, copurchase = simple_world()
    path = tmp_path / "pairs_exclusion.tsv"
    save_pairs(path, mine_pairs(groups, copurchase, floor=0.0))
    with pytest.raises(FileFormatError, match="pairs_exclusion.tsv"):
        load_kin(path)
