"""Query text canonicalization and behavior grouping.

The pipeline is fixed-order: lowercase, protected-entity masking, script
mapping, tokenization, stop-word removal, suffix stemming, token sorting,
and joining with "_".  Script mapping and stemming iterate to a fixed
point, and the whole pipeline is itself iterated to a fixed point (with a
cycle guard), so normalization is idempotent for any configuration.
Entity masking and script mapping rewrite the longest key that matches at
each position, scanning left to right; each runs as one compiled regular
expression built once per config, and empty keys are rejected because
they would match everywhere.
Queries sharing a normalized form are grouped and their purchase counts
summed, which lets product counts that are individually below the noise
filter survive at the group level.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from .files import read_tsv, write_tsv

if TYPE_CHECKING:
    from .corpus import Corpus

SEPARATOR = "_"
# Private-use sentinels bracket masked entities so no pipeline stage can
# touch them; any pre-existing occurrence in raw text is stripped first.
_MASK_OPEN = "\ue000"
_MASK_CLOSE = "\ue001"
# Splits a masked text into its masks (odd items) and the text between.
_MASK_SPLIT = re.compile(f"({_MASK_OPEN}[0-9]+{_MASK_CLOSE})")


def _longest_first(keys: Iterable[str]) -> re.Pattern[str]:
    """One alternation over the literal ``keys``, longest first.

    ``re`` takes the first alternative that matches at a position, so the
    ``(-len(key), key)`` order is what makes it pick the longest key there;
    the rewriter depends on that order and on no key being empty.  With no
    keys the pattern never matches.
    """
    ordered = sorted(keys, key=lambda key: (-len(key), key))
    return re.compile("|".join(map(re.escape, ordered)) or "(?!)")


@dataclass(frozen=True)
class NormalizationConfig:
    """Declarative resources for the normalization pipeline.

    ``script_map`` rewrites substrings to canonical spellings and is
    validated to be idempotent (every value is a fixed point of the map).
    ``stemmer_rules`` are (suffix, replacement) pairs tried
    longest-suffix-first.  ``protected_entities`` pass through every stage
    verbatim.  Script-map keys and entities are matched longest key first
    at each position; an empty key or entity raises ``ValueError``.  All
    resources are lowercased on construction because they apply after the
    lowercase stage, and the matchers are compiled once here.
    """

    stopwords: frozenset[str] = frozenset()
    script_map: Mapping[str, str] = None  # type: ignore[assignment]
    protected_entities: frozenset[str] = frozenset()
    stemmer_rules: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "stopwords", frozenset(w.lower() for w in self.stopwords))
        script_map = {k.lower(): v.lower() for k, v in (self.script_map or {}).items()}
        if "" in script_map:
            raise ValueError(
                f"script map has an empty key (mapped to {script_map['']!r})"
            )
        object.__setattr__(self, "script_map", script_map)
        entities = frozenset(e.lower() for e in self.protected_entities)
        if "" in entities:
            raise ValueError("protected entities contain an empty entry ''")
        object.__setattr__(self, "protected_entities", entities)
        rules = tuple((s.lower(), r.lower()) for s, r in self.stemmer_rules)
        object.__setattr__(self, "stemmer_rules", rules)
        object.__setattr__(self, "_script_pattern", _longest_first(script_map))
        object.__setattr__(self, "_entity_pattern", _longest_first(entities))
        # An empty suffix would strip every token to its replacement, so
        # such a rule is ignored.
        suffix_rules = sorted(
            (kv for kv in rules if kv[0]), key=lambda kv: (-len(kv[0]), kv[0])
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

    def _mask_entities(self, text: str) -> tuple[str, list[str]]:
        """Replace each protected entity, longest first, by an indexed mask.

        Returns the masked text and the entities in mask-index order.
        """
        masked: list[str] = []

        def mask(match: re.Match[str]) -> str:
            masked.append(match.group())
            return f"{_MASK_OPEN}{len(masked) - 1}{_MASK_CLOSE}"

        return self._entity_pattern.sub(mask, text), masked


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


def save_config(config: NormalizationConfig, out_dir: str | Path) -> dict[str, Path]:
    """Write the four resource files; returns their paths keyed by role."""
    out_dir = Path(out_dir)
    paths = {
        "stopwords": out_dir / "stopwords.tsv",
        "script_map": out_dir / "script_map.tsv",
        "entities": out_dir / "entities.tsv",
        "stemmer": out_dir / "stemmer_rules.tsv",
    }
    write_tsv(paths["stopwords"], "stopwords", ((w,) for w in sorted(config.stopwords)))
    write_tsv(
        paths["script_map"],
        "script-map",
        ((k, v) for k, v in sorted(config.script_map.items())),
    )
    write_tsv(paths["entities"], "entities", ((e,) for e in sorted(config.protected_entities)))
    write_tsv(paths["stemmer"], "stemmer-rules", config.stemmer_rules)
    return paths


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
    return "other"


def _split_script_boundaries(chunk: str) -> list[str]:
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
        if ch == _MASK_OPEN:
            # Masked entities tokenize as one opaque token.
            end = chunk.find(_MASK_CLOSE, i)
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


def _tokenize(text: str) -> list[str]:
    # "_" is a separator so that already-normalized output re-tokenizes
    # into the same tokens.
    tokens: list[str] = []
    for chunk in text.replace(SEPARATOR, " ").split():
        tokens.extend(_split_script_boundaries(chunk))
    return tokens


def _stem(token: str, ordered_rules: Sequence[tuple[str, str]]) -> str:
    def step(value: str) -> str:
        for suffix, replacement in ordered_rules:
            if value.endswith(suffix) and len(value) > len(suffix):
                return value[: -len(suffix)] + replacement
        return value

    return _fixed_point(token, step)


def _pipeline_pass(raw: str, config: NormalizationConfig) -> tuple[str, bool]:
    text = raw.lower().replace(_MASK_OPEN, "").replace(_MASK_CLOSE, "")

    text, masked = config._mask_entities(text)
    # The script map must not reach a mask's index: a digit key would
    # rewrite it.
    parts = _MASK_SPLIT.split(text)
    parts[::2] = [_fixed_point(part, config._map_script_once) for part in parts[::2]]
    text = "".join(parts)

    tokens = _tokenize(text)
    had_tokens = bool(tokens)
    tokens = [t for t in tokens if t not in config.stopwords]
    emptied = had_tokens and not tokens

    processed: list[str] = []
    for token in tokens:
        if token.startswith(_MASK_OPEN) and token.endswith(_MASK_CLOSE):
            processed.append(masked[int(token[1:-1])])
        else:
            processed.append(_stem(token, config._suffix_rules))

    return SEPARATOR.join(sorted(processed)), emptied


@dataclass(frozen=True)
class NormalizationResult:
    text: str
    emptied_by_stopwords: bool


def normalize_detail(raw: str, config: NormalizationConfig) -> NormalizationResult:
    """Run the pipeline to a fixed point, reporting stop-word blanking."""
    first, emptied = _pipeline_pass(raw, config)
    text = _fixed_point(first, lambda value: _pipeline_pass(value, config)[0])
    return NormalizationResult(text, emptied)


def normalize(raw: str, config: NormalizationConfig) -> str:
    """Canonical form of a raw query; idempotent for any config."""
    return normalize_detail(raw, config).text


@dataclass(frozen=True)
class QueryGroup:
    """Queries sharing one normalized form plus their summed raw behavior.

    ``aggregated_counts`` are pre-filter sums; callers re-apply the
    purchase floor at group level via :meth:`surviving_counts`.
    """

    normalized_text: str
    member_query_ids: tuple[str, ...]
    aggregated_counts: Mapping[str, int]

    def surviving_counts(self, min_purchase: int) -> dict[str, int]:
        return {p: c for p, c in self.aggregated_counts.items() if c >= min_purchase}


def group_queries(corpus: "Corpus", config: NormalizationConfig) -> list[QueryGroup]:
    """Partition the corpus by normalized form, summing raw purchase counts.

    Also fills each QueryRecord's ``normalized_text`` as a side effect of
    the normalization pass.
    """
    buckets: dict[str, list[str]] = {}
    for query_id, record in corpus.queries.items():
        normalized = normalize(record.raw_text, config)
        record.normalized_text = normalized
        buckets.setdefault(normalized, []).append(query_id)

    groups = []
    for normalized in sorted(buckets):
        members = tuple(sorted(buckets[normalized]))
        counts: dict[str, int] = {}
        for member in members:
            for product, count in corpus.raw_events(member).items():
                counts[product] = counts.get(product, 0) + count
        groups.append(QueryGroup(normalized, members, counts))
    return groups


def singleton_groups(corpus: "Corpus") -> list[QueryGroup]:
    """Degenerate grouping (one query per group) for ungrouped mining runs."""
    groups = []
    for query_id in sorted(corpus.queries):
        groups.append(
            QueryGroup(query_id, (query_id,), dict(corpus.raw_events(query_id)))
        )
    return groups


GROUPS_KIND = "groups"


def save_groups(path, groups: Iterable[QueryGroup]) -> None:
    rows = []
    for group in groups:
        counts = ",".join(
            f"{product}:{count}" for product, count in sorted(group.aggregated_counts.items())
        )
        rows.append((group.normalized_text, ",".join(group.member_query_ids), counts))
    write_tsv(path, GROUPS_KIND, rows, columns=("normalized_text", "members", "counts"))


def load_groups(path) -> list[QueryGroup]:
    _, rows = read_tsv(path, GROUPS_KIND, has_columns=True)
    groups = []
    for row in rows:
        normalized, members_field = row[0], row[1]
        counts: dict[str, int] = {}
        if len(row) > 2 and row[2]:
            for item in row[2].split(","):
                product, _, count = item.rpartition(":")
                counts[product] = int(count)
        groups.append(QueryGroup(normalized, tuple(members_field.split(",")), counts))
    return groups
