"""Offline metrics against hand-computed and brute-force oracles."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import stats

from qreform.evaluation import (
    AVERAGE_MACRO,
    AVERAGE_MICRO,
    MODE_GENERAL,
    MODE_HARD,
    SCOPE_ALL,
    SCOPE_TOP3,
    AuditLabel,
    EvalReport,
    _average_ranks,
    auroc,
    auroc_notrel,
    auroc_strict,
    load_audit_labels,
    load_report,
    ndcg_at_3,
    ndcg_at_3_single,
    recall_at_k,
    save_audit_labels,
    save_report,
    spearman,
)


# --- recall ---


def test_recall_micro_macro_worked_example():
    # Truth sizes {1, 3}, hits {1, 1}: micro (1 + 1/3)/2, macro 2/4.
    truth = {
        "q1": {"a": 1.0},
        "q2": {"b": 0.9, "c": 0.8, "d": 0.7},
    }
    retrieved = {"q1": ["a", "x"], "q2": ["b", "y"]}
    micro = recall_at_k(retrieved, truth, 100, SCOPE_ALL, AVERAGE_MICRO)
    macro = recall_at_k(retrieved, truth, 100, SCOPE_ALL, AVERAGE_MACRO)
    assert micro == pytest.approx((1 + 1 / 3) / 2, abs=1e-12)
    assert macro == pytest.approx(0.5, abs=1e-12)


def test_recall_top3_truncates_truth_by_gain():
    truth = {"q": {"a": 0.9, "b": 0.8, "c": 0.7, "d": 0.6}}
    retrieved = {"q": ["d"]}
    top3 = recall_at_k(retrieved, truth, 100, SCOPE_TOP3, AVERAGE_MICRO)
    assert top3 == 0.0  # d is outside the top-3 truth
    full = recall_at_k(retrieved, truth, 100, SCOPE_ALL, AVERAGE_MICRO)
    assert full == pytest.approx(0.25, abs=1e-12)


def test_recall_k_cutoff():
    truth = {"q": {"a": 1.0}}
    retrieved = {"q": ["x", "y", "a"]}
    assert recall_at_k(retrieved, truth, 2, SCOPE_ALL, AVERAGE_MICRO) == 0.0
    assert recall_at_k(retrieved, truth, 3, SCOPE_ALL, AVERAGE_MICRO) == 1.0


def test_recall_missing_retrieved_list_errors():
    with pytest.raises(ValueError):
        recall_at_k({}, {"q": {"a": 1.0}}, 10, SCOPE_ALL, AVERAGE_MICRO)


def test_recall_skips_empty_truth_queries():
    truth = {"q1": {"a": 1.0}, "q2": {}}
    retrieved = {"q1": ["a"]}
    assert recall_at_k(retrieved, truth, 10, SCOPE_ALL, AVERAGE_MICRO) == 1.0


# --- NDCG ---


def test_ndcg_worked_example():
    # Gains {1.0, 0.5, 0}; the model ranks the 0.5-gain item first.
    scores = {"a": 0.3, "b": 0.9, "c": 0.1}
    gains = {"a": 1.0, "b": 0.5, "c": 0.0}
    value = ndcg_at_3_single(scores, gains)
    dcg = 0.5 / 1.0 + 1.0 / math.log2(3) + 0.0
    idcg = 1.0 / 1.0 + 0.5 / math.log2(3)
    assert dcg == pytest.approx(1.1309, abs=1e-4)
    assert idcg == pytest.approx(1.3155, abs=1e-4)
    assert value == pytest.approx(0.8597, abs=1e-4)
    assert value == pytest.approx(dcg / idcg, abs=1e-12)


def test_ndcg_perfect_ranking_is_one():
    scores = {"a": 3.0, "b": 2.0, "c": 1.0}
    gains = {"a": 1.0, "b": 0.5, "c": 0.2}
    assert ndcg_at_3_single(scores, gains) == pytest.approx(1.0, abs=1e-12)


def test_ndcg_zero_gains_skipped():
    assert ndcg_at_3_single({"a": 1.0}, {"a": 0.0}) is None


def test_ndcg_mode_hard_adds_retrieved_zeros():
    per_query = {"q": {"a": 0.2, "x": 0.9, "y": 0.8, "z": 0.7}}
    truth = {"q": {"a": 1.0}}
    retrieved = {"q": ["x", "y", "z"]}
    general = ndcg_at_3(per_query, truth, MODE_GENERAL)
    hard = ndcg_at_3(per_query, truth, MODE_HARD, retrieved)
    assert general.value == pytest.approx(1.0, abs=1e-12)
    assert hard.value == pytest.approx(0.0, abs=1e-12)  # truth pushed below rank 3
    assert hard.n_queries == 1


def test_ndcg_hard_requires_retrieved():
    with pytest.raises(ValueError):
        ndcg_at_3({"q": {"a": 1.0}}, {"q": {"a": 1.0}}, MODE_HARD)


# --- AUROC / Spearman ---


# --- ranks ---


@given(
    st.lists(
        # A few fixed values make ties common; any finite float may join them.
        st.one_of(
            st.sampled_from([-1.0, 0.0, 0.5, 2.0]),
            st.floats(allow_nan=False, allow_infinity=False),
        ),
        min_size=1,
        max_size=40,
    )
)
@example([3.0])
@example([0.5, 0.5, 0.5, 0.5])
@example([2.0, 1.0, 2.0, 0.0, 1.0, 2.0])
def test_average_ranks_match_scipy(values):
    ranks = _average_ranks(values)
    assert ranks.dtype == np.float64
    assert np.array_equal(ranks, stats.rankdata(values))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_average_ranks_reject_a_non_finite_value(bad):
    with pytest.raises(ValueError, match="finite"):
        _average_ranks([1.0, bad, 0.0])


def test_the_cli_import_leaves_scipy_stats_unloaded():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import sys, qreform.cli; print('scipy.stats' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert (result.returncode, result.stdout) == (0, "False\n"), result.stderr


def test_auroc_worked_example():
    assert auroc([0.9, 0.8, 0.3], [1, 0, 1]) == pytest.approx(0.5, abs=1e-12)


def test_auroc_ties_count_half():
    assert auroc([0.5, 0.5], [1, 0]) == pytest.approx(0.5, abs=1e-12)


def test_auroc_perfect_separation():
    assert auroc([0.9, 0.8, 0.1], [1, 1, 0]) == 1.0


def test_auroc_requires_both_classes():
    with pytest.raises(ValueError):
        auroc([0.5, 0.6], [1, 1])


def test_auroc_variants_split_labels():
    scores = [0.9, 0.6, 0.2]
    labels = [2, 1, 0]
    # strict: positive = {2}; notrel: positive = {1, 2}
    assert auroc_strict(scores, labels) == auroc(scores, [1, 0, 0])
    assert auroc_notrel(scores, labels) == auroc(scores, [1, 1, 0])


def test_spearman_worked_example():
    assert spearman([1, 2, 3, 4], [1, 1, 2, 2]) == pytest.approx(0.8944, abs=1e-3)


def test_spearman_perfect_and_inverse():
    assert spearman([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0, abs=1e-12)
    assert spearman([1, 2, 3], [30, 20, 10]) == pytest.approx(-1.0, abs=1e-12)


def test_spearman_zero_variance_errors():
    with pytest.raises(ValueError):
        spearman([1, 2, 3], [5, 5, 5])


def test_rank_invariance_under_monotone_transform():
    rng = np.random.default_rng(0)
    scores = rng.normal(size=30)
    labels = rng.integers(0, 2, size=30)
    if labels.sum() in (0, 30):
        labels[0] = 1 - labels[0]
    transformed = np.exp(3.0 * scores) + 7.0
    assert auroc(scores, labels) == pytest.approx(
        auroc(transformed, labels), abs=1e-12
    )
    ordinal = rng.integers(0, 3, size=30)
    if np.ptp(ordinal) == 0:
        ordinal[0] += 1
    assert spearman(scores, ordinal) == pytest.approx(
        spearman(transformed, ordinal), abs=1e-12
    )


# --- report and audit files ---


def test_report_formatting_five_decimals():
    report = EvalReport("demo", {"recall": 0.123456789, "count": 7, "skipped": None})
    text = report.formatted()
    assert "recall\t0.12346" in text
    assert "count\t7" in text
    assert "skipped\tna" in text


def test_report_round_trip(tmp_path):
    report = EvalReport("demo", {"recall": 0.5, "n": 3, "gap": None})
    path = tmp_path / "report.tsv"
    save_report(report, path)
    loaded = load_report(path)
    assert loaded.model_id == "demo"
    assert loaded.metrics["recall"] == 0.5
    assert loaded.metrics["n"] == 3
    assert loaded.metrics["gap"] is None


def test_audit_labels_round_trip(tmp_path):
    labels = [AuditLabel("a", "b", 2), AuditLabel("a", "c", 0)]
    path = tmp_path / "audit.tsv"
    save_audit_labels(path, labels)
    assert load_audit_labels(path) == labels


def test_audit_label_validation():
    with pytest.raises(ValueError):
        AuditLabel("a", "b", 3)
