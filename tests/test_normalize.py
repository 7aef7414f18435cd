"""Normalization pipeline: canonical forms, idempotence, grouping."""

import re
import signal
from contextlib import contextmanager
from typing import Sequence

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from qreform.corpus import Corpus
from qreform.files import format_header
from qreform.normalize import (
    SEPARATOR,
    NormalizationConfig,
    _char_class,
    _fixed_point,
    _fold,
    _stem,
    group_queries,
    load_config,
    load_groups,
    normalize,
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


def test_stopword_removal():
    assert normalize("mask na wo", PLAIN) == "mask"
    assert normalize("na wo", PLAIN) == ""


@pytest.mark.parametrize(
    "raw, expected",
    [
        # Vowel signs and the virama are marks inside a Hindi word.
        ("क्या है", "क्या_है"),
        # The nukta, precomposed (U+095E) or as a mark after the consonant.
        ("मोबाइल \u095eोन", "फ़ोन_मोबाइल"),
        ("मोबाइल \u092b\u093cोन", "फ़ोन_मोबाइल"),
        # Half-width katakana folds to full-width.
        ("ｽﾏﾎ ｹｰｽ", "ケース_スマホ"),
        # A decomposed accent composes; precomposed input is unchanged.
        ("cafe\u0301", "caf\u00e9"),
        ("caf\u00e9", "caf\u00e9"),
        # A mark with no token before it is dropped.
        ("\u0301mask", "mask"),
        # Private-use characters are symbols like any other.
        ("ab\ue000cd", "ab_cd"),
        ("ab\ue001cd", "ab_cd"),
    ],
    ids=["hindi", "nukta-precomposed", "nukta-mark", "half-width", "decomposed",
         "precomposed", "leading-mark", "private-use-e000", "private-use-e001"],
)
def test_unicode_worked_examples(raw, expected):
    assert normalize(raw, PLAIN) == expected


def test_resources_fold_like_queries():
    config = NormalizationConfig(
        stopwords=frozenset({"ｹｰｽ"}),
        script_map={"\u095e": "\u092b"},
        protected_entities=frozenset({"CAFE\u0301"}),
        # Without the folded entity, the second rule would stem café.
        stemmer_rules=(("ﾎ", ""), ("\u00e9", "e")),
    )
    assert normalize("ケース café फ़ोन スマホ", config) == "café_फोन_スマ"


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
    paths = {
        f"{role}_path": tmp_path / f"{role}.tsv"
        for role in ("stopwords", "script_map", "entities", "stemmer")
    }
    save_config(PLAIN, **paths)
    loaded = load_config(**paths)
    assert loaded.stopwords == PLAIN.stopwords
    assert loaded.script_map == PLAIN.script_map
    assert loaded.protected_entities == PLAIN.protected_entities
    assert loaded.stemmer_rules == PLAIN.stemmer_rules
    for sample in ("MASK Sheet", "sonax wipes", "colours na"):
        assert normalize(sample, loaded) == normalize(sample, PLAIN)


@contextmanager
def _deadline(seconds: float):
    """Raise ``TimeoutError`` in the block once ``seconds`` have passed."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "resources, raw, message",
    [
        # Each strip appends an "a": ba, baa, baaa, ...
        ({"stemmer_rules": (("a", "aa"),)}, "ba", "stemmer rule ('a', 'aa')"),
        # Each pass turns every separator into an entity token: 0_q, 0___q, ...
        ({"protected_entities": frozenset({"_"})}, "0Q", "protected entity '_'"),
        # Each pass maps the separator into the letter token: 0_q, 0_xq, ...
        ({"script_map": {"_": "x"}}, "0Q", "script map key '_'"),
    ],
    ids=["growing-stemmer-rule", "separator-entity", "separator-script-map-key"],
)
def test_config_rejects_resources_that_never_reach_a_fixed_point(resources, raw, message):
    # The deadline turns a config that is accepted, and then hangs, into a
    # failure.
    with _deadline(0.5), pytest.raises(ValueError, match=re.escape(message)):
        normalize(raw, NormalizationConfig(**resources))


def test_config_rejects_empty_script_map_key():
    with pytest.raises(ValueError, match="empty key .*'x'"):
        NormalizationConfig(script_map={"": "x"})


def test_config_rejects_empty_protected_entity():
    with pytest.raises(ValueError, match="empty entry ''"):
        NormalizationConfig(protected_entities=frozenset({"sonax", ""}))


def test_load_config_rejects_empty_script_map_key(tmp_path):
    path = tmp_path / "script_map.tsv"
    path.write_text(format_header("script-map") + "\n\tx\n", encoding="utf-8")
    with pytest.raises(ValueError, match="empty key .*'x'"):
        load_config(script_map_path=path)


def test_load_config_names_file_of_malformed_script_map_row(tmp_path):
    path = tmp_path / "script_map.tsv"
    path.write_text(format_header("script-map") + "\ncolour\n", encoding="utf-8")
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


def _split_entities_by_scan(text: str, entities: Sequence[str]) -> list[str]:
    """The text between entities at even indices, the entities at odd ones."""
    pieces = [""]
    i = 0
    while i < len(text):
        for entity in entities:
            if text.startswith(entity, i):
                pieces += [entity, ""]
                i += len(entity)
                break
        else:
            pieces[-1] += text[i]
            i += 1
    return pieces


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
def test_entity_split_matches_scanner(entities, text):
    config = NormalizationConfig(protected_entities=frozenset(entities))
    assert config._entity_pattern.split(text) == _split_entities_by_scan(
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
    # A digit key rewrites the digits around entities and never an entity.
    config = NormalizationConfig(
        script_map={"0": "o"}, protected_entities=frozenset({"sonax"})
    )
    assert normalize("sonax 0", config) == "o_sonax"
    config = NormalizationConfig(
        script_map={"1": "2"}, protected_entities=frozenset({"acme", "sonax"})
    )
    assert normalize("acme sonax 1", config) == "2_acme_sonax"


# --- the sentinel normalizer that the entity split replaced ---
#
# It masked each entity with a private-use sentinel around a digit index,
# kept the script map off the masks, tokenized a mask as one opaque token
# and decoded the masks last.  It deleted U+E000 and U+E001 from its input,
# which the entity split leaves as symbols, so the property below draws
# neither.

_REF_OPEN = "\ue000"
_REF_CLOSE = "\ue001"
_REF_MASK_SPLIT = re.compile(f"({_REF_OPEN}[0-9]+{_REF_CLOSE})")


def _reference_split_script_boundaries(chunk: str) -> list[str]:
    tokens: list[str] = []
    current: list[str] = []
    current_class = None

    def flush() -> None:
        nonlocal current, current_class
        if current:
            tokens.append("".join(current))
        current, current_class = [], None

    i = 0
    while i < len(chunk):
        ch = chunk[i]
        if ch == _REF_OPEN:
            end = chunk.find(_REF_CLOSE, i)
            if end == -1:
                i += 1
                continue
            flush()
            tokens.append(chunk[i:end + 1])
            i = end + 1
            continue
        cls = _char_class(ch)
        if cls == "other":
            flush()
        elif cls == "mark":
            if current:
                current.append(ch)
        elif current_class is None or cls == current_class:
            current.append(ch)
            current_class = cls
        else:
            flush()
            current.append(ch)
            current_class = cls
        i += 1
    flush()
    return tokens


def _reference_pipeline_pass(raw: str, config: NormalizationConfig) -> str:
    text = _fold(raw).replace(_REF_OPEN, "").replace(_REF_CLOSE, "")
    masked: list[str] = []

    def mask(match: re.Match[str]) -> str:
        masked.append(match.group())
        return f"{_REF_OPEN}{len(masked) - 1}{_REF_CLOSE}"

    text = config._entity_pattern.sub(mask, text)
    parts = _REF_MASK_SPLIT.split(text)
    parts[::2] = [_fixed_point(part, config._map_script_once) for part in parts[::2]]
    text = "".join(parts)
    tokens = []
    for chunk in text.replace(SEPARATOR, " ").split():
        tokens.extend(_reference_split_script_boundaries(chunk))
    processed = []
    for token in tokens:
        if token in config.stopwords:
            continue
        if token.startswith(_REF_OPEN) and token.endswith(_REF_CLOSE):
            processed.append(masked[int(token[1:-1])])
        else:
            processed.append(_stem(token, config._suffix_rules))
    return SEPARATOR.join(sorted(processed))


def _reference_normalize(raw: str, config: NormalizationConfig) -> str:
    return _fixed_point(raw, lambda value: _reference_pipeline_pass(value, config))


# Katakana and hiragana (with full-width and half-width voicing marks),
# half-width forms, an ideograph, Devanagari with a nukta (precomposed and
# as a mark), combining accents, digits, Latin letters, the separator and
# other symbols.
_SCRIPT_ALPHABET = "マスクますｽﾏﾎﾞﾟ\u3099子फ\u095e\u093cो\u094d\u0301\u030801abesz_-. "
_resource_words = st.text(alphabet=_SCRIPT_ALPHABET, max_size=3)
# Keys and entities holding the separator are rejected by the config.
_resource_keys = st.text(alphabet=_SCRIPT_ALPHABET.replace(SEPARATOR, ""), min_size=1, max_size=3)


@st.composite
def _configs(draw) -> NormalizationConfig:
    try:
        return NormalizationConfig(
            stopwords=frozenset(draw(st.sets(_resource_keys, max_size=3))),
            script_map=draw(st.dictionaries(_resource_keys, _resource_words, max_size=3)),
            protected_entities=frozenset(draw(st.sets(_resource_keys, max_size=3))),
            stemmer_rules=tuple(
                draw(st.lists(st.tuples(_resource_words, _resource_words), max_size=3))
            ),
        )
    except ValueError:
        # A map that is not idempotent, or a rule that grows its token.
        reject()


@settings(max_examples=500, deadline=None)
@given(
    st.text(
        alphabet=st.one_of(
            st.sampled_from(_SCRIPT_ALPHABET),
            st.characters(exclude_characters=_REF_OPEN + _REF_CLOSE),
        ),
        max_size=16,
    ),
    _configs(),
)
def test_normalize_matches_the_sentinel_reference(raw, config):
    assert normalize(raw, config) == _reference_normalize(raw, config)


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
    loaded = load_groups(path, corpus)
    assert loaded == groups


def test_empty_forms_join_no_group():
    rows = [("na wo", "pA", 3), ("wo", "pA", 3), ("!!!", "pA", 3), ("mask", "pA", 3)]
    corpus = build_corpus(rows)
    groups = group_queries(corpus, PLAIN)
    assert [(g.normalized_text, g.member_query_ids) for g in groups] == [
        ("mask", ("mask",))
    ]
    assert [normalize(q, PLAIN) for q in ("na wo", "wo", "!!!")] == ["", "", ""]
    # Grouping only reads the corpus.
    assert corpus.queries == build_corpus(rows).queries
