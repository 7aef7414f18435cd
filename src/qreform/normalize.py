"""Query text canonicalization and behavior grouping.

The pipeline is fixed-order: NFKC compatibility folding and lowercase,
a split at the protected entities, then script mapping, tokenization,
stop-word removal and suffix stemming of each piece between the
entities, and last the sorting of every token and joining with "_".  An
entity is a token as it stands, so no later stage touches it.  NFKC
makes precomposed and decomposed spellings (a nukta, an accent) and
half-width katakana read alike.  Tokens split at whitespace,
punctuation (the separator "_" too) and script changes; a combining
mark (a vowel sign, virama or nukta) continues the token it follows and
is dropped where no token precedes it.  Script mapping and stemming
iterate to a fixed point, and the whole pipeline is itself iterated to a
fixed point (with a cycle guard), so normalization is idempotent for any
configuration.  The entity split and script mapping match the longest
key at each position, scanning left to right; each runs as one compiled
regular expression built once per config.
Queries sharing a normalized form are grouped and their purchase counts
summed, which lets product counts that are individually below the noise
filter survive at the group level.  A query whose form is empty (only
stop-words or punctuation) joins no group.  Grouping leaves the corpus
as it was: a query's form is recorded only in its group.  A groups file
records membership only; loading it sums the counts from the corpus
again.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from .files import FileFormatError, read_tsv, write_tsv

if TYPE_CHECKING:
    from .corpus import Corpus

SEPARATOR = "_"


def _fold(text: str) -> str:
    """NFKC then lowercase: the first two stages, applied to queries and
    to every configured resource alike."""
    return unicodedata.normalize("NFKC", text).lower()


def _longest_first(keys: Iterable[str]) -> re.Pattern[str]:
    """One capturing alternation over the literal ``keys``, longest first.

    ``re`` takes the first alternative that matches at a position, so the
    ``(-len(key), key)`` order is what makes it pick the longest key there;
    the matchers depend on that order and on no key being empty.  The group
    makes ``split`` keep the matches.  With no keys the pattern never
    matches.
    """
    ordered = sorted(keys, key=lambda key: (-len(key), key))
    return re.compile("(" + ("|".join(map(re.escape, ordered)) or "(?!)") + ")")


@dataclass(frozen=True)
class NormalizationConfig:
    """Declarative resources for the normalization pipeline.

    ``script_map`` rewrites substrings to canonical spellings and is
    validated to be idempotent (every value is a fixed point of the map).
    ``stemmer_rules`` are (suffix, replacement) pairs tried
    longest-suffix-first.  ``protected_entities`` pass through every stage
    verbatim.  Script-map keys and entities are matched longest key first
    at each position.  All resources are NFKC-folded and lowercased on
    construction because they apply after those stages, and the matchers
    are compiled once here.  ``ValueError`` names an entry that would
    match everywhere or never let the pipeline settle: an empty key or
    entity, a key or entity holding the separator (it matches across the
    previous pass's tokens), or a replacement longer than its suffix.
    """

    stopwords: frozenset[str] = frozenset()
    script_map: Mapping[str, str] = None  # type: ignore[assignment]
    protected_entities: frozenset[str] = frozenset()
    stemmer_rules: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "stopwords", frozenset(map(_fold, self.stopwords)))
        script_map = {_fold(k): _fold(v) for k, v in (self.script_map or {}).items()}
        if "" in script_map:
            raise ValueError(
                f"script map has an empty key (mapped to {script_map['']!r})"
            )
        object.__setattr__(self, "script_map", script_map)
        entities = frozenset(map(_fold, self.protected_entities))
        if "" in entities:
            raise ValueError("protected entities contain an empty entry ''")
        for role, keys in (("script map key", script_map), ("protected entity", entities)):
            for key in keys:
                if SEPARATOR in key:
                    raise ValueError(f"{role} {key!r} contains the separator {SEPARATOR!r}")
        object.__setattr__(self, "protected_entities", entities)
        rules = tuple((_fold(s), _fold(r)) for s, r in self.stemmer_rules)
        object.__setattr__(self, "stemmer_rules", rules)
        object.__setattr__(self, "_script_pattern", _longest_first(script_map))
        object.__setattr__(self, "_entity_pattern", _longest_first(entities))
        # An empty suffix would strip every token to its replacement, so
        # such a rule is ignored.
        suffix_rules = sorted(
            (kv for kv in rules if kv[0]), key=lambda kv: (-len(kv[0]), kv[0])
        )
        for suffix, replacement in suffix_rules:
            if len(replacement) > len(suffix):
                raise ValueError(
                    f"stemmer rule {(suffix, replacement)!r} has a replacement"
                    " longer than its suffix"
                )
        object.__setattr__(self, "_suffix_rules", tuple(suffix_rules))
        for source, target in script_map.items():
            mapped = self._map_script_once(target)
            if mapped != target:
                raise ValueError(
                    f"script map is not idempotent: {source!r} -> {target!r} -> {mapped!r}"
                )

    def _map_script_once(self, text: str) -> str:
        """Replace the longest script-map key at each position, left to right."""
        return self._script_pattern.sub(lambda m: self.script_map[m.group()], text)


def load_config(
    stopwords_path: str | Path | None = None,
    script_map_path: str | Path | None = None,
    entities_path: str | Path | None = None,
    stemmer_path: str | Path | None = None,
) -> NormalizationConfig:
    """Assemble a config from the four flat resource files (each optional)."""
    stopwords: frozenset[str] = frozenset()
    if stopwords_path is not None:
        _, rows = read_tsv(stopwords_path, "stopwords")
        stopwords = frozenset(row[0] for row in rows)
    script_map: dict[str, str] = {}
    if script_map_path is not None:
        _, rows = read_tsv(script_map_path, "script-map")
        for row in rows:
            if len(row) != 2:
                raise ValueError(
                    f"{script_map_path}: script map rows need 'from<TAB>to', got {row!r}"
                )
            script_map[row[0]] = row[1]
    entities: frozenset[str] = frozenset()
    if entities_path is not None:
        _, rows = read_tsv(entities_path, "entities")
        entities = frozenset(row[0] for row in rows)
    rules: tuple[tuple[str, str], ...] = ()
    if stemmer_path is not None:
        _, rows = read_tsv(stemmer_path, "stemmer-rules")
        parsed = []
        for row in rows:
            suffix = row[0]
            replacement = row[1] if len(row) > 1 else ""
            parsed.append((suffix, replacement))
        rules = tuple(parsed)
    return NormalizationConfig(
        stopwords=stopwords,
        script_map=script_map,
        protected_entities=entities,
        stemmer_rules=rules,
    )


def save_config(
    config: NormalizationConfig,
    stopwords_path: str | Path,
    script_map_path: str | Path,
    entities_path: str | Path,
    stemmer_path: str | Path,
) -> None:
    """Write the four resource files that ``load_config`` reads."""
    write_tsv(stopwords_path, "stopwords", ((w,) for w in sorted(config.stopwords)))
    write_tsv(
        script_map_path,
        "script-map",
        ((k, v) for k, v in sorted(config.script_map.items())),
    )
    write_tsv(entities_path, "entities", ((e,) for e in sorted(config.protected_entities)))
    write_tsv(stemmer_path, "stemmer-rules", config.stemmer_rules)


def _fixed_point(value: str, step: Callable[[str], str]) -> str:
    """Iterate ``step`` until it stops changing; on a cycle, return its
    lexicographically smallest member so repeated application is stable."""
    seen = [value]
    while True:
        nxt = step(seen[-1])
        if nxt == seen[-1]:
            return nxt
        if nxt in seen:
            cycle = seen[seen.index(nxt):]
            return min(cycle)
        seen.append(nxt)


def _char_class(ch: str) -> str:
    code = ord(ch)
    if 0x3040 <= code <= 0x309F:
        return "hiragana"
    if 0x30A0 <= code <= 0x30FF or 0x31F0 <= code <= 0x31FF:
        return "katakana"
    if 0x4E00 <= code <= 0x9FFF or 0x3400 <= code <= 0x4DBF:
        return "ideograph"
    if ch.isdigit():
        return "digit"
    category = unicodedata.category(ch)
    if category.startswith("L"):
        return "letter"
    if category.startswith("M"):
        return "mark"
    return "other"


def _tokenize(text: str) -> list[str]:
    """Runs of one script class, in order.  A mark continues the run it
    follows; any other character, the separator among them, ends a run
    and starts none, so normalized output re-tokenizes into its tokens."""
    tokens: list[str] = []
    start, current = 0, None
    for i, ch in enumerate(text):
        cls = _char_class(ch)
        if cls == current or (cls == "mark" and current is not None):
            continue
        if current is not None:
            tokens.append(text[start:i])
        start, current = i, None if cls in ("mark", "other") else cls
    if current is not None:
        tokens.append(text[start:])
    return tokens


def _stem(token: str, ordered_rules: Sequence[tuple[str, str]]) -> str:
    def step(value: str) -> str:
        for suffix, replacement in ordered_rules:
            if value.endswith(suffix) and len(value) > len(suffix):
                return value[: -len(suffix)] + replacement
        return value

    return _fixed_point(token, step)


def _pipeline_pass(raw: str, config: NormalizationConfig) -> str:
    # The odd pieces are the entities; the even ones lie between them.
    pieces = config._entity_pattern.split(_fold(raw))
    tokens = pieces[1::2]
    for piece in pieces[::2]:
        mapped = _fixed_point(piece, config._map_script_once)
        tokens.extend(
            _stem(token, config._suffix_rules)
            for token in _tokenize(mapped)
            if token not in config.stopwords
        )
    return SEPARATOR.join(sorted(tokens))


def normalize(raw: str, config: NormalizationConfig) -> str:
    """Canonical form of a raw query; idempotent for any config."""
    return _fixed_point(raw, lambda value: _pipeline_pass(value, config))


@dataclass(frozen=True)
class QueryGroup:
    """Queries sharing one normalized form plus their summed raw behavior.

    ``aggregated_counts`` are pre-filter sums in ascending product order;
    callers re-apply the purchase floor at group level via
    :meth:`surviving_counts`.
    """

    normalized_text: str
    member_query_ids: tuple[str, ...]
    aggregated_counts: Mapping[str, int]

    def surviving_counts(self, min_purchase: int) -> dict[str, int]:
        return {p: c for p, c in self.aggregated_counts.items() if c >= min_purchase}


def _query_group(corpus: "Corpus", normalized_text: str, members: Sequence[str]) -> QueryGroup:
    """The group of ``members`` under one form, their raw events summed."""
    counts: dict[str, int] = {}
    for member in members:
        for product, count in corpus.raw_events(member).items():
            counts[product] = counts.get(product, 0) + count
    return QueryGroup(normalized_text, tuple(sorted(members)), dict(sorted(counts.items())))


def group_queries(corpus: "Corpus", config: NormalizationConfig) -> list[QueryGroup]:
    """Partition the corpus by normalized form, summing raw purchase counts.

    The corpus is only read.  Queries whose form is empty share nothing
    but the absence of words, so they are left out of every group.
    """
    buckets: dict[str, list[str]] = {}
    for query_id in corpus.queries:
        normalized = normalize(query_id, config)
        if normalized:
            buckets.setdefault(normalized, []).append(query_id)
    return [_query_group(corpus, form, buckets[form]) for form in sorted(buckets)]


def singleton_groups(corpus: "Corpus") -> list[QueryGroup]:
    """Degenerate grouping (one query per group) for ungrouped mining runs."""
    return [_query_group(corpus, q, (q,)) for q in sorted(corpus.queries)]


GROUPS_KIND = "groups"


def save_groups(path, groups: Iterable[QueryGroup]) -> None:
    rows = (
        (group.normalized_text, member)
        for group in groups
        for member in group.member_query_ids
    )
    write_tsv(path, GROUPS_KIND, rows, columns=("normalized_text", "member"))


def load_groups(path, corpus: "Corpus") -> list[QueryGroup]:
    """The groups of a ``save_groups`` file, one ``(normalized_text,
    member)`` row per member, with their counts summed from ``corpus``."""
    _, rows = read_tsv(path, GROUPS_KIND, has_columns=True)
    members: dict[str, list[str]] = {}
    for normalized, member in rows:
        if member not in corpus.queries:
            raise FileFormatError(f"{path}: group member {member!r} is not a corpus query")
        members.setdefault(normalized, []).append(member)
    return [_query_group(corpus, form, ids) for form, ids in members.items()]
