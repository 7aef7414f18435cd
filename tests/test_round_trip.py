"""Every artifact round-trips any query and product text.

Cells are flat, so text holding ``,``, ``:``, a leading ``#`` or any
script reloads as written; only a tab, ``\\n`` or ``\\r`` cannot appear,
and no log line can carry one.
"""

import tempfile
from collections import Counter
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qreform import ance, corpus, evaluation, mining, normalize, synthgen
from qreform.files import format_header, read_tsv, write_tsv
from qreform.pipeline import PipelineConfig, PipelinePaths, run_pipeline

# Texts a comma- or colon-joined list cell would split, and scripts the log
# must keep as written.
MESSY = (
    "red, shoes",
    "p,1",
    "p:2",
    "#1 mask",
    "ﾏｽｸ",  # half-width katakana
    "マスク",  # full-width katakana
    "\u091c\u093c\u0942\u0924\u093e",  # Devanagari ja + nukta, decomposed
)
TEXT = st.one_of(
    st.sampled_from(MESSY),
    st.text(st.characters(codec="utf-8", exclude_characters="\t\n\r"), min_size=1, max_size=12),
)


def _reloaded(save, load):
    """Save into a fresh directory, then load from it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "artifact.tsv"
        save(path)
        return load(path)


@example([("red, shoes", "p,1", 0.5, 0.25, 1.0), ("#1 mask", "p:2", 0.0, 1.0, 0.125)])
@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(TEXT, TEXT, *[st.floats(0.0, 1.0)] * 3), max_size=6))
def test_pairs_round_trip(rows):
    pairs = [mining.QueryPair(*row) for row in rows]
    loaded = _reloaded(lambda p: mining.save_pairs(p, pairs), mining.load_pairs)
    assert loaded == [
        mining.QueryPair(s, t, *(float(f"{x:.6f}") for x in scores))
        for s, t, *scores in rows
    ]


@example([("red, shoes", "red shoes"), ("ﾏｽｸ", "マスク")])
@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(TEXT, TEXT), max_size=6))
def test_kin_round_trip(pairs):
    expected: dict[str, set[str]] = {}
    for a, b in pairs:
        expected.setdefault(a, set()).add(b)
        expected.setdefault(b, set()).add(a)
    assert _reloaded(lambda p: mining.save_kin(p, pairs), mining.load_kin) == expected


def _corpus(events, min_purchase=2):
    records = corpus.Corpus(min_purchase)
    for query, product, count in events:
        records.add_row(query, product, count)
    records.finalize()
    return records


EVENTS = st.lists(
    st.tuples(TEXT, st.one_of(st.none(), TEXT), st.integers(0, 5)), min_size=1, max_size=8
)


@example(
    [("red shoes", "p,1", 3), ("red, shoes", "p:2", 2), ("red, shoes", "p,1", 1)],
    ["red_shoes", "red_shoes", "red_shoes"],
)
@settings(max_examples=60, deadline=None)
@given(EVENTS, st.lists(st.sampled_from(("a", "b", "#1", "マスク", "x,y")), max_size=8))
def test_groups_round_trip_with_corpus(events, forms):
    records = _corpus(events)
    # Each query joins the form drawn for it; queries past the drawn
    # forms join no group, as queries with an empty form do.
    members: dict[str, list[str]] = {}
    for query, form in zip(sorted(records.queries), forms):
        members.setdefault(form, []).append(query)
    groups = []
    for form in sorted(members):
        counts = Counter()
        for query in members[form]:
            counts.update(records.raw_events(query))
        groups.append(
            normalize.QueryGroup(form, tuple(sorted(members[form])), dict(sorted(counts.items())))
        )
    loaded = _reloaded(
        lambda p: normalize.save_groups(p, groups),
        lambda p: normalize.load_groups(p, records),
    )
    assert loaded == groups
    # mine_pairs sums in this order, so it is part of the contract.
    assert [list(g.aggregated_counts) for g in loaded] == [
        sorted(g.aggregated_counts) for g in groups
    ]


@example({"red, shoes": ["a, b", "#1 mask"], "p:2": []}, 3)
@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(TEXT, st.lists(TEXT, unique=True, max_size=4), max_size=5),
    st.integers(1, 9),
)
def test_hard_negatives_round_trip(negatives, round_index):
    records = [
        ance.HardNegativeRecord(anchor, tuple(n for n in negs if n != anchor), round_index, "c0")
        for anchor, negs in negatives.items()
    ]
    loaded = _reloaded(
        lambda p: ance.save_hard_negatives(p, records), ance.load_hard_negatives
    )
    # An anchor with no negatives writes no rows.
    assert loaded == [record for record in records if record.negatives]


@example([("#1 mask", "p,1", 2), ("マスク", None, 0)])
@settings(max_examples=60, deadline=None)
@given(EVENTS)
def test_queries_and_events_round_trip(events):
    records = _corpus(events)

    def save(path):
        corpus.save_queries(records, path)
        corpus.save_events(records, path.with_name("events.tsv"))

    loaded = _reloaded(save, lambda p: corpus.load_corpus(p, p.with_name("events.tsv")))
    assert loaded.queries == records.queries
    assert loaded.min_purchase == records.min_purchase
    for query in records.queries:
        assert loaded.raw_events(query) == records.raw_events(query)


@example([("red, shoes", "p:2", 2), ("#1 mask", "ﾏｽｸ", 0)])
@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(TEXT, TEXT, st.integers(0, 2)), max_size=6))
def test_audit_labels_round_trip(rows):
    labels = [evaluation.AuditLabel(*row) for row in rows]
    loaded = _reloaded(
        lambda p: evaluation.save_audit_labels(p, labels), evaluation.load_audit_labels
    )
    assert loaded == labels


# A purchase names a product; a zero-purchase row may leave it empty.
LOG_ROW = st.one_of(
    st.tuples(TEXT, TEXT, st.integers(0, 5)), st.tuples(TEXT, st.just(""), st.just(0))
)


@example(
    [
        ("#1 mask", "p,1", 2),
        ("#1 mask", "p,1", 3),
        ("マスク", "", 0),
        ("ﾏｽｸ", "p:2", 0),
        ("\u091c\u093c\u0942\u0924\u093e", "p3", 1),
    ]
)
@settings(max_examples=60, deadline=None)
@given(st.lists(LOG_ROW, min_size=1, max_size=8))
def test_behavior_log_round_trip(rows):
    # Ingestion sums each (query, product)'s purchases and keeps every
    # query, even one that bought nothing.
    expected: dict[str, Counter] = {}
    for query, product, purchases in rows:
        counts = expected.setdefault(query, Counter())
        if purchases:
            counts[product] += purchases
    loaded = _reloaded(lambda p: write_tsv(p, synthgen.LOG_KIND, rows), corpus.ingest_log)
    assert {q: dict(loaded.raw_events(q)) for q in loaded.queries} == {
        q: dict(counts) for q, counts in expected.items()
    }


MESSY_LOG = [
    ("red shoes", "p,1", 3),
    ("red, shoes", "p,1", 2),
    ("red, shoes", "p:2", 2),
    ("#1 mask", "p:2", 4),
    ("#1 mask", "p3", 2),
    ("ﾏｽｸ", "p3", 3),
    ("マスク", "p,1", 2),
    ("\u091c\u093c\u0942\u0924\u093e", "p3", 2),  # decomposed nukta
    ("\u095b\u0942\u0924\u093e", "p:2", 2),  # precomposed; the same NFKC form
    ("blue towel", "p4", 0),
]


def test_messy_log_mines_only_corpus_queries(tmp_path):
    config = PipelineConfig(out_dir=str(tmp_path / "run"), n_test_queries=2)
    paths = PipelinePaths(tmp_path / "run")
    paths.root.mkdir()
    lines = [format_header("behavior-log")] + [f"{q}\t{p}\t{n}" for q, p, n in MESSY_LOG]
    paths.log.write_text("\n".join(lines) + "\n", encoding="utf-8")
    normalize.save_config(
        normalize.NormalizationConfig(),
        paths.stopwords,
        paths.script_map,
        paths.entities,
        paths.stemmer,
    )
    run_pipeline(config, stages=("ingest", "normalize", "mine"))

    ingested = corpus.load_corpus(paths.corpus_queries, paths.corpus_events)
    assert set(ingested.queries) == {q for q, _, _ in MESSY_LOG}
    named = {row[1] for row in read_tsv(paths.groups, normalize.GROUPS_KIND, True)[1]}
    pair_files = [
        paths.pairs_train,
        paths.pairs_val,
        paths.pairs_test,
        paths.pairs_baseline_train,
        paths.pairs_baseline_val,
    ]
    mined = {(p.source, p.target) for path in pair_files for p in mining.load_pairs(path)}
    named |= {query for pair in mined for query in pair}
    named |= set(mining.load_kin(paths.pairs_exclusion))
    assert named <= set(ingested.queries)
    assert ("red shoes", "red, shoes") in mined

    groups = normalize.group_queries(ingested, normalize.NormalizationConfig())
    assert normalize.load_groups(paths.groups, ingested) == groups
