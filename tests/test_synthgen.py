"""Synthetic corpus generator: determinism, ground truth, pathologies."""

import statistics

import pytest

from qreform.corpus import ingest_log
from qreform.evaluation import load_audit_labels
from qreform.mining import BehaviorDistribution, importance, jsd
from qreform.normalize import load_config, normalize
from qreform.pipeline import PipelineConfig, PipelinePaths, run_pipeline
from qreform.synthgen import (
    RELATION_CONFUSABLE,
    RELATION_SAME,
    RELATION_UNRELATED,
    SynthConfig,
    generate,
    load_ground_truth,
)
from tests.conftest import set_overlap

SMALL = SynthConfig(
    n_intents=16, queries_per_intent=12, products_per_catalog=14, n_audit_pairs=150
)
# The median number of distinct products a tail query of SMALL buys
# stays at or below this.
TAIL_PRODUCT_BOUND = 6


def query_counts(result):
    counts = {}
    for query, product, purchases in result.log_rows:
        if product:
            bucket = counts.setdefault(query, {})
            bucket[product] = bucket.get(product, 0) + purchases
    return counts


def intent_counts(result):
    by_intent = {}
    for query, product, purchases in result.log_rows:
        if not product:
            continue
        intent = result.ground_truth.query_intent[query]
        bucket = by_intent.setdefault(intent, {})
        bucket[product] = bucket.get(product, 0) + purchases
    return by_intent


def test_generate_deterministic():
    a, b = generate(SMALL, 0), generate(SMALL, 0)
    assert a.log_rows == b.log_rows
    assert a.audit_labels == b.audit_labels
    assert a.ground_truth == b.ground_truth


def test_generate_seed_changes_output():
    assert generate(SMALL, 1).log_rows != generate(SMALL, 0).log_rows


def test_config_validation():
    with pytest.raises(ValueError, match="2 intents"):
        SynthConfig(n_intents=1)
    with pytest.raises(ValueError, match="2 queries"):
        SynthConfig(queries_per_intent=1)
    with pytest.raises(ValueError, match="2 products"):
        SynthConfig(products_per_catalog=1)


def test_every_query_has_exactly_one_intent():
    result = generate(SMALL, 0)
    queries = {row[0] for row in result.log_rows}
    assert queries <= set(result.ground_truth.query_intent)
    n_queries = SMALL.n_intents * SMALL.queries_per_intent
    assert len(result.ground_truth.query_intent) == n_queries


def test_unrelated_intents_have_disjoint_catalogs():
    result = generate(SMALL, 0)
    by_intent = intent_counts(result)
    truth = result.ground_truth
    unrelated = [
        (a, b)
        for a in by_intent
        for b in by_intent
        if a < b and truth.intent_relation(a, b) == RELATION_UNRELATED
    ]
    assert unrelated
    a, b = unrelated[0]
    da = BehaviorDistribution.from_counts(by_intent[a])
    db = BehaviorDistribution.from_counts(by_intent[b])
    assert set(by_intent[a]).isdisjoint(by_intent[b])
    assert importance(da, db) == pytest.approx(0.0, abs=1e-12)


def test_confusable_catalogs_nested():
    result = generate(SMALL, 0)
    by_intent = intent_counts(result)
    for parent, child in sorted(result.ground_truth.confusable_intents):
        child_products = set(by_intent.get(child, {}))
        parent_products = set(by_intent.get(parent, {}))
        if child_products and parent_products:
            assert child_products <= parent_products


def test_containment_pathology_realized():
    # At least one confusable pair must show visible legacy overlap (the
    # child catalog nests inside the parent's) while behavioral importance
    # stays far lower: the trap that set-overlap mining falls into.
    result = generate(SynthConfig(), 0)
    by_intent = intent_counts(result)
    best_ratio, best_legacy = 0.0, 0.0
    for parent, child in sorted(result.ground_truth.confusable_intents):
        if child not in by_intent or parent not in by_intent:
            continue
        legacy = set_overlap(set(by_intent[parent]), set(by_intent[child]))
        imp = importance(
            BehaviorDistribution.from_counts(by_intent[parent]),
            BehaviorDistribution.from_counts(by_intent[child]),
        )
        if imp > 0.0 and legacy / imp > best_ratio:
            best_ratio, best_legacy = legacy / imp, legacy
    assert best_ratio >= 2.0
    assert best_legacy >= 0.15


def test_separability_of_mean_importance_over_seeds():
    same_means, confusable_means, unrelated_means = [], [], []
    for seed in range(10):
        result = generate(SMALL, seed)
        by_intent = intent_counts(result)
        dists = {
            i: BehaviorDistribution.from_counts(c)
            for i, c in by_intent.items()
            if c
        }
        truth = result.ground_truth
        buckets = {RELATION_SAME: [], RELATION_CONFUSABLE: [], RELATION_UNRELATED: []}
        per_query = query_counts(result)
        rich = {
            q: BehaviorDistribution.from_counts(c)
            for q, c in per_query.items()
            if sum(c.values()) >= 30
        }
        rich_ids = sorted(rich)
        for i, qa in enumerate(rich_ids):
            for qb in rich_ids[i + 1:i + 6]:
                relation = truth.relation(qa, qb)
                buckets[relation].append(importance(rich[qa], rich[qb]))
        del dists
        for relation, values in buckets.items():
            if values:
                mean = sum(values) / len(values)
                if relation == RELATION_SAME:
                    same_means.append(mean)
                elif relation == RELATION_CONFUSABLE:
                    confusable_means.append(mean)
                else:
                    unrelated_means.append(mean)
    mean = lambda xs: sum(xs) / len(xs)
    assert mean(same_means) > mean(confusable_means) > mean(unrelated_means)


def test_same_intent_jsd_small_for_high_volume_queries():
    # Monte Carlo over seeds: among well-sampled same-intent pairs whose
    # phrasings share a popularity profile (skew queries buy under a
    # permuted profile on purpose), jsd stays below 0.2 at least 95% of
    # the time.
    total, below = 0, 0
    for seed in range(5):
        result = generate(SMALL, seed)
        truth = result.ground_truth
        rich = {
            q: BehaviorDistribution.from_counts(c)
            for q, c in query_counts(result).items()
            if sum(c.values()) >= 50
        }
        rich_ids = sorted(q for q in rich if result.variant_form[q] != "skew")
        for i, qa in enumerate(rich_ids):
            for qb in rich_ids[i + 1:]:
                if truth.relation(qa, qb) == RELATION_SAME:
                    total += 1
                    if jsd(rich[qa], rich[qb]) < 0.2:
                        below += 1
    assert total >= 50
    assert below / total >= 0.95


def test_skew_phrasing_diverges_within_intent():
    # The drifted synonym buys the same catalog under a different mix, so
    # cross-profile importance sits well below same-profile importance.
    result = generate(SMALL, 0)
    truth = result.ground_truth
    counts = query_counts(result)
    rich = {q: c for q, c in counts.items() if sum(c.values()) >= 25}
    same_profile, cross_profile = [], []
    rich_ids = sorted(rich)
    for i, qa in enumerate(rich_ids):
        for qb in rich_ids[i + 1:]:
            if truth.relation(qa, qb) != RELATION_SAME:
                continue
            pair_forms = {result.variant_form[qa], result.variant_form[qb]}
            value = importance(
                BehaviorDistribution.from_counts(rich[qa]),
                BehaviorDistribution.from_counts(rich[qb]),
            )
            if "skew" in pair_forms and len(pair_forms) > 1:
                cross_profile.append(value)
            elif "skew" not in pair_forms:
                same_profile.append(value)
    assert same_profile and cross_profile
    assert statistics.fmean(cross_profile) < statistics.fmean(same_profile) - 0.2


def test_tail_queries_are_behavior_sparse():
    result = generate(SMALL, 0)
    per_query = query_counts(result)
    totals = {q: sum(c.values()) for q, c in per_query.items()}
    for query in result.ground_truth.query_intent:
        totals.setdefault(query, 0)
    ordered = sorted(totals, key=lambda q: (totals[q], q))
    tail = ordered[: len(ordered) // 3]
    distinct = [len(per_query.get(q, {})) for q in tail]
    assert statistics.median(distinct) <= TAIL_PRODUCT_BOUND


def test_audit_labels_cover_all_classes_and_match_truth():
    result = generate(SMALL, 0)
    truth = result.ground_truth
    seen = set()
    for label in result.audit_labels:
        seen.add(label.label)
        relation = truth.relation(label.source, label.target)
        expected = {RELATION_SAME: 2, RELATION_CONFUSABLE: 1, RELATION_UNRELATED: 0}
        assert label.label == expected[relation]
    assert seen == {0, 1, 2}


def test_surface_variants_collapse_under_normalization():
    result = generate(SMALL, 0)
    queries = sorted(result.ground_truth.query_intent)
    forms = {normalize(q, result.norm_config) for q in queries}
    assert len(forms) < len(queries) / 2


def test_synth_stage_files_round_trip(tmp_path):
    run_pipeline(PipelineConfig(out_dir=str(tmp_path), synth=SMALL), stages=("synth-gen",))
    paths = PipelinePaths(tmp_path)
    result = generate(SMALL, 0)
    corpus = ingest_log(paths.log, min_purchase=2)
    assert set(corpus.queries) == set(result.ground_truth.query_intent)
    assert load_ground_truth(paths.intents, paths.relations) == result.ground_truth
    assert load_audit_labels(paths.audit) == result.audit_labels
    loaded = load_config(paths.stopwords, paths.script_map, paths.entities, paths.stemmer)
    for name in ("stopwords", "script_map", "protected_entities", "stemmer_rules"):
        assert getattr(loaded, name) == getattr(result.norm_config, name), name
