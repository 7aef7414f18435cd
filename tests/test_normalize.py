"""Normalization pipeline: canonical forms, idempotence, grouping."""

from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qreform.corpus import Corpus
from qreform.normalize import (
    _MASK_CLOSE,
    _MASK_OPEN,
    NormalizationConfig,
    group_queries,
    load_config,
    load_groups,
    normalize,
    normalize_detail,
    save_config,
    save_groups,
    singleton_groups,
)
from tests.conftest import build_corpus

KATAKANA_CONFIG = NormalizationConfig(
    stopwords=frozenset({"の", "を", "de"}),
    script_map={"ますく": "マスク", "ふしょくふ": "不織布"},
    protected_entities=frozenset(),
    stemmer_rules=(("z", ""), ("ing", "")),
)

PLAIN = NormalizationConfig(
    stopwords=frozenset({"na", "wo"}),
    script_map={"colour": "color"},
    protected_entities=frozenset({"sonax"}),
    stemmer_rules=(("s", ""),),
)


def test_lowercase():
    assert normalize("MASK Sheet", PLAIN) == "mask_sheet"


def test_token_sort_is_codepoint_order():
    # Katakana sorts before ideographs, which sort after hiragana here.
    config = NormalizationConfig(
        stopwords=frozenset(), script_map={}, protected_entities=frozenset(),
        stemmer_rules=()
    )
    assert normalize("子供 マスク 不織布", config) == "マスク_不織布_子供"


def test_script_map_applied_to_fixpoint():
    assert normalize("ますく の 子供", KATAKANA_CONFIG) == "マスク_子供"


def test_script_boundary_splitting():
    # Hiragana/katakana/ideograph boundaries split without whitespace.
    config = NormalizationConfig(
        stopwords=frozenset(), script_map={}, protected_entities=frozenset(),
        stemmer_rules=()
    )
    assert normalize("マスク子供", config) == "マスク_子供"


def test_stopword_removal_and_flag():
    result = normalize_detail("mask na wo", PLAIN)
    assert result.text == "mask"
    assert not result.emptied_by_stopwords
    emptied = normalize_detail("na wo", PLAIN)
    assert emptied.text == ""
    assert emptied.emptied_by_stopwords


def test_stemming_to_fixpoint():
    # Repeated suffix strip: "maskss" -> "masks" -> "mask".
    assert normalize("maskss", PLAIN) == "mask"


def test_stemmer_never_empties_token():
    # A token equal to the suffix is left alone (length guard).
    assert normalize("s", PLAIN) == "s"


def test_protected_entity_not_stemmed():
    assert normalize("sonax wipes", PLAIN) == "sonax_wipe"


def test_protected_entity_case_insensitive():
    assert normalize("SONAX", PLAIN) == "sonax"


def test_separator_join_and_underscore_input():
    assert normalize("red_mask", PLAIN) == "mask_red"


def test_config_rejects_non_idempotent_script_map():
    with pytest.raises(ValueError, match="not idempotent"):
        NormalizationConfig(
            stopwords=frozenset(),
            script_map={"a": "b", "b": "c"},
            protected_entities=frozenset(),
            stemmer_rules=(),
        )


@settings(max_examples=300, deadline=None)
@given(st.text(min_size=0, max_size=30))
def test_idempotence_plain_config(raw):
    once = normalize(raw, PLAIN)
    assert normalize(once, PLAIN) == once


@settings(max_examples=300, deadline=None)
@given(
    st.text(
        alphabet=st.sampled_from("ますくの子供マスク不織布 abz"), min_size=0, max_size=16
    )
)
def test_idempotence_mixed_scripts(raw):
    once = normalize(raw, KATAKANA_CONFIG)
    assert normalize(once, KATAKANA_CONFIG) == once


def test_config_round_trip(tmp_path):
    paths = save_config(PLAIN, tmp_path)
    loaded = load_config(
        stopwords_path=paths["stopwords"],
        script_map_path=paths["script_map"],
        entities_path=paths["entities"],
        stemmer_path=paths["stemmer"],
    )
    assert loaded.stopwords == PLAIN.stopwords
    assert loaded.script_map == PLAIN.script_map
    assert loaded.protected_entities == PLAIN.protected_entities
    assert loaded.stemmer_rules == PLAIN.stemmer_rules
    for sample in ("MASK Sheet", "sonax wipes", "colours na"):
        assert normalize(sample, loaded) == normalize(sample, PLAIN)


def test_config_rejects_empty_script_map_key():
    with pytest.raises(ValueError, match="empty key .*'x'"):
        NormalizationConfig(script_map={"": "x"})


def test_config_rejects_empty_protected_entity():
    with pytest.raises(ValueError, match="empty entry ''"):
        NormalizationConfig(protected_entities=frozenset({"sonax", ""}))


def test_load_config_rejects_empty_script_map_key(tmp_path):
    path = tmp_path / "script_map.tsv"
    path.write_text("#qreform-script-map v1\n\tx\n", encoding="utf-8")
    with pytest.raises(ValueError, match="empty key .*'x'"):
        load_config(script_map_path=path)


def test_load_config_names_file_of_malformed_script_map_row(tmp_path):
    path = tmp_path / "script_map.tsv"
    path.write_text("#qreform-script-map v1\ncolour\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"script_map\.tsv: script map rows need"):
        load_config(script_map_path=path)


# --- compiled rewriter against the per-character scanners it replaced ---


def _apply_script_map_once(text: str, ordered_map: Sequence[tuple[str, str]]) -> str:
    if not ordered_map:
        return text
    out = []
    i = 0
    while i < len(text):
        for source, target in ordered_map:
            if text.startswith(source, i):
                out.append(target)
                i += len(source)
                break
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def _mask_entities_by_scan(text: str, entities: Sequence[str]) -> tuple[str, list[str]]:
    masked: list[str] = []
    if entities:
        buf = []
        i = 0
        while i < len(text):
            for entity in entities:
                if text.startswith(entity, i):
                    buf.append(f"{_MASK_OPEN}{len(masked)}{_MASK_CLOSE}")
                    masked.append(entity)
                    i += len(entity)
                    break
            else:
                buf.append(text[i])
                i += 1
        text = "".join(buf)
    return text, masked


def _longest_first(keys):
    return sorted(keys, key=lambda key: (-len(key), key))


# Keys drawn from a small alphabet are often prefixes of one another, and
# the alphabet holds the regex metacharacters an unescaped pattern would
# misread.
_REWRITE_ALPHABET = "ab.*([\\|"
_rewrite_keys = st.text(alphabet=_REWRITE_ALPHABET, min_size=1, max_size=4)
_rewrite_texts = st.text(alphabet=_REWRITE_ALPHABET + "xy ", max_size=24)


@settings(max_examples=300, deadline=None)
@given(st.sets(_rewrite_keys, max_size=8), _rewrite_texts)
def test_entity_masking_matches_scanner(entities, text):
    config = NormalizationConfig(protected_entities=frozenset(entities))
    assert config._mask_entities(text) == _mask_entities_by_scan(
        text, _longest_first(entities)
    )


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(_rewrite_keys, st.sampled_from(["", "x", "y", "xy"]), max_size=8),
    _rewrite_texts,
)
def test_script_mapping_matches_scanner(script_map, text):
    # Targets outside the key alphabet keep every generated map idempotent.
    config = NormalizationConfig(script_map=script_map)
    ordered = [(key, script_map[key]) for key in _longest_first(script_map)]
    assert config._map_script_once(text) == _apply_script_map_once(text, ordered)


def test_protected_entity_containing_script_map_key_passes_unmapped():
    config = NormalizationConfig(
        script_map={"colour": "color"},
        protected_entities=frozenset({"colourfix"}),
    )
    assert normalize("Colourfix colour", config) == "color_colourfix"


def test_digit_script_map_key_leaves_entity_masks_alone():
    # Each mask holds its entity's index in digits, which a digit key
    # must not rewrite.
    config = NormalizationConfig(
        script_map={"0": "o"}, protected_entities=frozenset({"sonax"})
    )
    assert normalize("sonax 0", config) == "o_sonax"
    config = NormalizationConfig(
        script_map={"1": "2"}, protected_entities=frozenset({"acme", "sonax"})
    )
    assert normalize("acme sonax 1", config) == "2_acme_sonax"


# --- grouping ---


def grouping_corpus() -> Corpus:
    return build_corpus(
        [
            ("mask sheet", "pA", 1),
            ("mask sheet", "pB", 1),
            ("sheet mask", "pA", 1),
            ("sheet MASK", "pB", 1),
            ("towel", "pC", 5),
        ]
    )


def test_group_queries_merges_variants_and_sums_prefilter_counts():
    corpus = grouping_corpus()
    groups = {g.normalized_text: g for g in group_queries(corpus, PLAIN)}
    merged = groups["mask_sheet"]
    assert merged.member_query_ids == ("mask sheet", "sheet MASK", "sheet mask")
    # Pre-filter counts summed: pA = 1 + 1 = 2 survives the group-level
    # min_purchase even though no single member reaches it.
    assert merged.aggregated_counts == {"pA": 2, "pB": 2}
    assert merged.surviving_counts(2) == {"pA": 2, "pB": 2}


def test_group_level_threshold_reapplied():
    corpus = build_corpus([("a b", "pX", 1), ("b a", "pY", 1)])
    groups = {g.normalized_text: g for g in group_queries(corpus, PLAIN)}
    assert groups["a_b"].surviving_counts(2) == {}


def test_singleton_groups_keep_queries_apart():
    corpus = grouping_corpus()
    singles = singleton_groups(corpus)
    assert len(singles) == len(corpus.queries)
    by_name = {g.normalized_text: g for g in singles}
    assert by_name["mask sheet"].surviving_counts(2) == {}


def test_groups_file_round_trip(tmp_path):
    corpus = grouping_corpus()
    groups = group_queries(corpus, PLAIN)
    path = tmp_path / "groups.tsv"
    save_groups(path, groups)
    loaded = load_groups(path)
    assert loaded == groups


def test_group_queries_fills_normalized_text():
    corpus = grouping_corpus()
    group_queries(corpus, PLAIN)
    assert corpus.queries["sheet MASK"].normalized_text == "mask_sheet"
