"""Offline metrics: recall@K, NDCG@3, AUROC variants, Spearman, reports.

Naming note: this module follows the source convention where "micro"
recall is the per-query mean and "macro" is pooled hits over pooled truth
counts.  That is the opposite of common IR usage; reports carry the same
glossary note so numbers stay comparable with their table of origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .files import read_tsv, write_tsv

LABEL_NOT_RELEVANT = 0
LABEL_PARTIAL = 1
LABEL_STRICT = 2

SCOPE_TOP3 = "top3"
SCOPE_ALL = "all"
AVERAGE_MICRO = "micro"
AVERAGE_MACRO = "macro"

MODE_GENERAL = "general"
MODE_HARD = "hard"

_MICRO_MACRO_NOTE = (
    "micro=per-query mean recall; macro=pooled hits over pooled truth "
    "(source-table convention, inverted vs common IR usage)"
)


@dataclass(frozen=True)
class AuditLabel:
    """Human-audit label for an ordered query pair on a 3-level scale."""

    source: str
    target: str
    label: int

    def __post_init__(self) -> None:
        if self.label not in (LABEL_NOT_RELEVANT, LABEL_PARTIAL, LABEL_STRICT):
            raise ValueError(f"audit label must be 0, 1 or 2, got {self.label}")


def _ranked_partners(gains: Mapping[str, float]) -> list[str]:
    return sorted(gains, key=lambda q: (-gains[q], q))


def recall_at_k(
    retrieved: Mapping[str, Sequence[str]],
    truth: Mapping[str, Mapping[str, float]],
    k: int = 100,
    scope: str = SCOPE_TOP3,
    average: str = AVERAGE_MICRO,
) -> float:
    """Recall of truth partners inside each query's top-k retrieved list.

    scope=top3 keeps only each query's 3 highest-scored partners (ties by
    ascending id); average=micro means per-query recalls averaged,
    average=macro means pooled hits over pooled truth counts.  Queries
    with empty truth drop out of the micro mean and add nothing to either
    macro sum.
    """
    if scope not in (SCOPE_TOP3, SCOPE_ALL):
        raise ValueError(f"unknown scope {scope!r}")
    if average not in (AVERAGE_MICRO, AVERAGE_MACRO):
        raise ValueError(f"unknown average {average!r}")
    per_query: list[float] = []
    total_hits = 0
    total_truth = 0
    for query in sorted(truth):
        gains = truth[query]
        if not gains:
            continue
        if query not in retrieved:
            raise ValueError(f"no retrieved list for truth query {query!r}")
        wanted = set(_ranked_partners(gains)[:3]) if scope == SCOPE_TOP3 else set(gains)
        got = set(list(retrieved[query])[:k])
        hits = len(wanted & got)
        per_query.append(hits / len(wanted))
        total_hits += hits
        total_truth += len(wanted)
    if average == AVERAGE_MICRO:
        if not per_query:
            raise ValueError("no queries with non-empty truth")
        return float(np.mean(per_query))
    if total_truth == 0:
        raise ValueError("no queries with non-empty truth")
    return total_hits / total_truth


def ndcg_at_3_single(
    scores: Mapping[str, float], gains: Mapping[str, float]
) -> float | None:
    """NDCG@3 for one query over a fixed candidate set; None if no gain.

    Candidates ranked by model score descending (ties by id); linear gain;
    ideal ranking computed over the same candidate set.
    """
    if not scores:
        return None
    ranked = sorted(scores, key=lambda q: (-scores[q], q))
    ideal = sorted((gains.get(q, 0.0) for q in scores), reverse=True)
    dcg = sum(
        gains.get(q, 0.0) / math.log2(r + 2) for r, q in enumerate(ranked[:3])
    )
    idcg = sum(g / math.log2(r + 2) for r, g in enumerate(ideal[:3]))
    if idcg <= 0.0:
        return None
    return dcg / idcg


@dataclass(frozen=True)
class NdcgResult:
    value: float
    n_queries: int
    n_skipped: int


def ndcg_at_3(
    per_query_scores: Mapping[str, Mapping[str, float]],
    truth: Mapping[str, Mapping[str, float]],
    mode: str = MODE_GENERAL,
    retrieved: Mapping[str, Sequence[str]] | None = None,
) -> NdcgResult:
    """Arithmetic-mean NDCG@3 across queries.

    general mode scores truth partners only; hard mode scores the union
    of retrieved and truth candidates, with zero gain for unpaired ones
    (simulating re-ranking after retrieval).  Queries whose ideal gain is
    zero are skipped and counted.
    """
    if mode not in (MODE_GENERAL, MODE_HARD):
        raise ValueError(f"unknown ndcg mode {mode!r}")
    if mode == MODE_HARD and retrieved is None:
        raise ValueError("hard mode requires retrieval results")
    values: list[float] = []
    skipped = 0
    for query in sorted(truth):
        gains = truth[query]
        candidates = set(gains)
        if mode == MODE_HARD:
            if query not in retrieved:
                raise ValueError(f"no retrieved list for truth query {query!r}")
            candidates |= set(retrieved[query])
        if not candidates:
            skipped += 1
            continue
        scores = per_query_scores.get(query)
        if scores is None:
            raise ValueError(f"no model scores for truth query {query!r}")
        missing = [c for c in candidates if c not in scores]
        if missing:
            raise ValueError(
                f"query {query!r} lacks model scores for {len(missing)} candidates"
            )
        value = ndcg_at_3_single({c: scores[c] for c in candidates}, gains)
        if value is None:
            skipped += 1
        else:
            values.append(value)
    if not values:
        raise ValueError("ndcg: every query was skipped (no positive gains)")
    return NdcgResult(float(np.mean(values)), len(values), skipped)


def _average_ranks(values: Sequence[float]) -> np.ndarray:
    """1-based ranks of ``values``, each run of ties sharing its mean rank,
    as ``scipy.stats.rankdata`` gives them.  A non-finite value raises a
    ValueError: a sort would rank NaN silently."""
    values = np.asarray(values, dtype=np.float64)
    if not np.isfinite(values).all():
        raise ValueError("ranks need finite values")
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], values.size]
    ranks = np.empty(values.size)
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return ranks


def auroc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Mann-Whitney AUROC: P(random positive outranks random negative),
    ties counted half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must align")
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("auroc needs both classes present")
    ranks = _average_ranks(scores)
    u = float(np.sum(ranks[labels == 1])) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def auroc_strict(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Positive class = strictly relevant; everything else negative."""
    binary = [1 if lab == LABEL_STRICT else 0 for lab in labels]
    return auroc(scores, binary)


def auroc_notrel(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Positive class = at least partially relevant; negative = not relevant."""
    binary = [0 if lab == LABEL_NOT_RELEVANT else 1 for lab in labels]
    return auroc(scores, binary)


def spearman(scores: Sequence[float], labels: Sequence[float]) -> float:
    """Pearson correlation of average-tie fractional ranks."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must align")
    if scores.size < 2:
        raise ValueError("spearman needs at least two observations")
    rank_s = _average_ranks(scores)
    rank_l = _average_ranks(labels)
    if np.ptp(rank_s) == 0.0 or np.ptp(rank_l) == 0.0:
        raise ValueError("spearman undefined for zero-variance rankings")
    rank_s = rank_s - rank_s.mean()
    rank_l = rank_l - rank_l.mean()
    return float(
        np.sum(rank_s * rank_l)
        / np.sqrt(np.sum(rank_s**2) * np.sum(rank_l**2))
    )


@dataclass
class EvalReport:
    """Named metric values for one model, serialized deterministically."""

    model_id: str
    metrics: dict[str, float | int | None]

    def metric_rows(self) -> list[tuple[str, str]]:
        rows = []
        for name in sorted(self.metrics):
            value = self.metrics[name]
            if value is None:
                rows.append((name, "na"))
            elif isinstance(value, int):
                rows.append((name, str(value)))
            else:
                rows.append((name, f"{value:.5f}"))
        return rows

    def formatted(self) -> str:
        lines = [f"model\t{self.model_id}"]
        lines.extend(f"{name}\t{value}" for name, value in self.metric_rows())
        return "\n".join(lines) + "\n"


REPORT_KIND = "eval-report"
AUDIT_KIND = "audit-labels"


def save_report(report: EvalReport, path) -> None:
    rows = [("#note", _MICRO_MACRO_NOTE)]
    rows.extend(report.metric_rows())
    write_tsv(path, REPORT_KIND, rows, columns=("metric", "value"), model=report.model_id)


def load_report(path) -> EvalReport:
    attrs, rows = read_tsv(path, REPORT_KIND, has_columns=True)
    metrics: dict[str, float | int | None] = {}
    for name, value in rows:
        if name.startswith("#"):
            continue
        if value == "na":
            metrics[name] = None
        elif "." in value:
            metrics[name] = float(value)
        else:
            metrics[name] = int(value)
    return EvalReport(attrs.get("model", ""), metrics)


def save_audit_labels(path, labels: Sequence[AuditLabel]) -> None:
    rows = ((l.source, l.target, l.label) for l in labels)
    write_tsv(path, AUDIT_KIND, rows, columns=("source", "target", "label"))


def load_audit_labels(path) -> list[AuditLabel]:
    _, rows = read_tsv(path, AUDIT_KIND, has_columns=True)
    return [AuditLabel(r[0], r[1], int(r[2])) for r in rows]
