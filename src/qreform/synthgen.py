"""Synthetic behavior logs with known intent structure.

Every query belongs to exactly one intent; an intent owns a product
catalog, a base phrase of three tokens (one generic token shared with
other intents, two specifics), and two synonym phrases made of fresh
tokens.  The "alt" synonym buys with the same popularity profile as the
base phrase (lexically unrelated, behaviorally identical); the "skew"
synonym buys only the deepest slice of the same catalog under a
reversed sharp profile (lexically unrelated, behaviorally almost
disjoint), so the phrasings stay co-purchase-linked but their mined
importance is an order of magnitude below the faithful synonym's.
Queries are surface variants of one of the three phrases: token
permutations, variant spellings (a trailing "q" the script map undoes),
inflections (a trailing "z" the stemmer strips), inserted stopwords,
and occasional typos.  Two more pathologies are planted across intents.
Confusable intent pairs share two tokens and the child buys its own
deep slice of the parent's catalog under a reversed sharp profile, so
set overlap is real while the purchase distributions diverge hard.
Doppelganger intent pairs also share two tokens but have disjoint
catalogs: textually near, behaviorally unrelated, exactly the false
friends a lexical matcher retrieves.  Traffic is Zipfian within each
intent, which yields behavior-rich heads and impoverished tails
organically; sparse queries only reach the popular core of their
profile, as limited traffic explores little of the catalog.  The
corpus's shape (traffic skew, pathology shares, noise, typo rate,
vocabulary sizes) is fixed by module constants; a caller sets its scale
through ``SynthConfig`` and the seed as an argument of ``generate``.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .corpus import canonical_pair
from .evaluation import (
    LABEL_NOT_RELEVANT,
    LABEL_PARTIAL,
    LABEL_STRICT,
    AuditLabel,
)
from .files import read_tsv, write_tsv
from .normalize import NormalizationConfig

_CONSONANTS = "bcdfghjklmnprstvwy"
_VOWELS = "aeiou"
_STOPWORDS = ("na", "wo", "de")
# The shape of the corpus: traffic skew over each intent's queries, the
# share of intent pairs planted as confusable or doppelganger, the share
# of traffic ranks phrased as synonyms, the width of a divergent catalog
# slice, per-intent purchase volume, per-product lognormal noise, the
# per-token typo rate, and the shared generic and brand vocabularies.
_ZIPF_EXPONENT = 1.15
_CONFUSABLE_FRACTION = 0.25
_DOPPEL_FRACTION = 0.25
_ALT_FRACTION = 0.5
_OVERLAP_FRACTION = 0.5
_PURCHASES_SCALE = 480.0
_NOISE_SIGMA = 0.25
_TYPO_PROB = 0.1
_N_GENERIC_WORDS = 3
_N_BRANDS = 4

LOG_KIND = "behavior-log"
INTENTS_KIND = "intents"
RELATIONS_KIND = "intent-relations"

RELATION_SAME = "same"
RELATION_CONFUSABLE = "confusable"
RELATION_UNRELATED = "unrelated"
# Stored in the relations file for diagnostics; relation() reports these
# pairs as unrelated because their catalogs are disjoint.
RELATION_DOPPEL = "doppelganger"


@dataclass
class SynthConfig:
    """Scale knobs; defaults target a minute-scale pipeline run.  The run
    seed is passed to ``generate`` on its own, and the corpus shape is
    fixed by the module constants above."""

    n_intents: int = 80
    queries_per_intent: int = 20
    products_per_catalog: int = 40
    n_audit_pairs: int = 400

    def __post_init__(self) -> None:
        if self.n_intents < 2 or self.queries_per_intent < 2:
            raise ValueError("need at least 2 intents and 2 queries per intent")
        if self.products_per_catalog < 2:
            raise ValueError("catalogs need at least 2 products")


@dataclass
class SynthGroundTruth:
    """Query-to-intent map plus the planted intent relations."""

    query_intent: dict[str, str]
    confusable_intents: frozenset[tuple[str, str]]
    doppel_intents: frozenset[tuple[str, str]] = frozenset()

    def relation(self, query_a: str, query_b: str) -> str:
        return self.intent_relation(
            self.query_intent[query_a], self.query_intent[query_b]
        )

    def intent_relation(self, intent_a: str, intent_b: str) -> str:
        if intent_a == intent_b:
            return RELATION_SAME
        if canonical_pair(intent_a, intent_b) in self.confusable_intents:
            return RELATION_CONFUSABLE
        return RELATION_UNRELATED


@dataclass
class SynthResult:
    seed: int
    log_rows: list[tuple[str, str, int]]
    ground_truth: SynthGroundTruth
    audit_labels: list[AuditLabel]
    norm_config: NormalizationConfig
    variant_form: dict[str, str] = field(default_factory=dict)


def _make_words(rng: random.Random, count: int, used: set[str]) -> list[str]:
    words = []
    while len(words) < count:
        n_syllables = 2 + (rng.random() < 0.4)
        word = "".join(
            rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(n_syllables)
        )
        if word not in used:
            used.add(word)
            words.append(word)
    return words


def _slice_width(catalog_size: int) -> int:
    """Width of one divergent-behavior slice (child or skew) of a catalog."""
    width = int(round(catalog_size * _OVERLAP_FRACTION / 2))
    return max(1, min(catalog_size // 2, width))


def _typo(token: str, rng: random.Random) -> str:
    if len(token) < 3:
        return token
    i = rng.randrange(len(token) - 1)
    if rng.random() < 0.5:
        return token[:i] + token[i + 1] + token[i] + token[i + 2:]
    return token[:i] + token[i] + token[i:]


def _variant(tokens: Sequence[str], rng: random.Random) -> str:
    out = list(tokens)
    if rng.random() < 0.6:
        rng.shuffle(out)
    mutated = []
    for token in out:
        roll = rng.random()
        if roll < 0.3:
            token = token + "q"
        elif roll < 0.45:
            token = token + "z"
        if rng.random() < _TYPO_PROB:
            token = _typo(token, rng)
        mutated.append(token)
    if rng.random() < 0.3:
        mutated.insert(rng.randrange(len(mutated) + 1), rng.choice(_STOPWORDS))
    return " ".join(mutated)


def generate(config: SynthConfig, seed: int) -> SynthResult:
    """Deterministic synthetic corpus for one config and seed."""
    rng = random.Random(seed)
    np_rng = np.random.default_rng(seed)
    used_words: set[str] = set(_STOPWORDS)

    generics = _make_words(rng, _N_GENERIC_WORDS, used_words)
    brands = [w + "z" for w in _make_words(rng, _N_BRANDS, used_words)]

    n_confusable = int(round(_CONFUSABLE_FRACTION * config.n_intents / 2))
    n_doppel = int(round(_DOPPEL_FRACTION * config.n_intents / 2))
    intent_ids = [f"intent{i:02d}" for i in range(config.n_intents)]
    confusable_pairs: set[tuple[str, str]] = set()
    doppel_pairs: set[tuple[str, str]] = set()

    intent_tokens: dict[str, tuple[str, ...]] = {}
    alt_tokens: dict[str, tuple[str, ...]] = {}
    skew_tokens: dict[str, tuple[str, ...]] = {}
    catalogs: dict[str, list[str]] = {}
    catalog_weights: dict[str, np.ndarray] = {}

    for i, intent in enumerate(intent_ids):
        # Odd slots pair up with the preceding even intent: the first
        # n_confusable such pairs get nested catalogs, the next n_doppel
        # get disjoint catalogs behind a near-identical phrase.
        parent_index = None
        role = "plain"
        if i % 2 == 1:
            if i // 2 < n_confusable:
                parent_index, role = i - 1, "confusable"
            elif i // 2 < n_confusable + n_doppel:
                parent_index, role = i - 1, "doppel"
        generic = generics[(i // 2) % len(generics)]
        if parent_index is None:
            spec_a, spec_b = _make_words(rng, 2, used_words)
            tokens = [generic, spec_a, spec_b]
            if i % (config.n_intents // _N_BRANDS + 1) == 0:
                tokens.append(brands[i % len(brands)])
            products = [
                f"prod{i:02d}_{j:02d}" for j in range(config.products_per_catalog)
            ]
            weights = (np.arange(config.products_per_catalog) + 1.0) ** -1.2
        elif role == "confusable":
            parent = intent_ids[parent_index]
            spec_b = _make_words(rng, 1, used_words)[0]
            tokens = [intent_tokens[parent][0], intent_tokens[parent][1], spec_b]
            confusable_pairs.add((parent, intent))
            # Child intent buys a deep slice of the parent's catalog with a
            # reversed sharp profile: set overlap with the parent stays
            # real while the distributions diverge hard.
            child_w = _slice_width(len(catalogs[parent]))
            lo = max(0, len(catalogs[parent]) - 2 * child_w)
            products = catalogs[parent][lo:lo + child_w]
            weights = (np.arange(len(products)) + 1.0) ** -2.0
            weights = weights[::-1].copy()
        else:
            parent = intent_ids[parent_index]
            spec_b = _make_words(rng, 1, used_words)[0]
            tokens = [intent_tokens[parent][0], intent_tokens[parent][1], spec_b]
            doppel_pairs.add((parent, intent))
            products = [
                f"prod{i:02d}_{j:02d}" for j in range(config.products_per_catalog)
            ]
            weights = (np.arange(config.products_per_catalog) + 1.0) ** -1.2
        intent_tokens[intent] = tuple(tokens)
        alt_tokens[intent] = tuple(_make_words(rng, 3, used_words))
        skew_tokens[intent] = tuple(_make_words(rng, 3, used_words))
        catalogs[intent] = products
        catalog_weights[intent] = weights / weights.sum()

    query_intent: dict[str, str] = {}
    queries_by_intent: dict[str, list[str]] = {}
    variant_form: dict[str, str] = {}
    log_rows: list[tuple[str, str, int]] = []

    rank_weights = (np.arange(config.queries_per_intent) + 1.0) ** -_ZIPF_EXPONENT
    rank_weights /= rank_weights.sum()

    # Spread synonym slots evenly over the traffic ranks, alternating the
    # faithful "alt" phrase and the drifted "skew" phrase; rank 0 always
    # carries the base phrase verbatim and the first slot of each synonym
    # carries that phrase verbatim, so every phrasing has a behavior-rich
    # anchor.
    synonym_ranks = sorted(
        r
        for r in range(config.queries_per_intent)
        if int((r + 1) * _ALT_FRACTION) > int(r * _ALT_FRACTION)
    )
    rank_form = {
        rank: ("alt" if slot % 2 == 0 else "skew")
        for slot, rank in enumerate(synonym_ranks)
    }

    for intent in intent_ids:
        forms = {
            "base": intent_tokens[intent],
            "alt": alt_tokens[intent],
            "skew": skew_tokens[intent],
        }
        first_pending = {"base": True, "alt": True, "skew": True}
        variants: list[str] = []
        for rank in range(config.queries_per_intent):
            form = rank_form.get(rank, "base")
            tokens = forms[form]
            candidate = " ".join(tokens) if first_pending[form] else None
            first_pending[form] = False
            attempts = 0
            while (
                candidate is None
                or candidate in query_intent
                or candidate in variants
            ):
                attempts += 1
                if attempts > 200:
                    raise ValueError(
                        f"could not generate {config.queries_per_intent} distinct "
                        f"variants for {intent}"
                    )
                candidate = _variant(tokens, rng)
            variants.append(candidate)
            variant_form[candidate] = form
        for query in variants:
            query_intent[query] = intent
        queries_by_intent[intent] = variants

        intent_volume = _PURCHASES_SCALE * rng.uniform(0.85, 1.15)
        volumes = np.floor(intent_volume * rank_weights).astype(int)
        base_weights = catalog_weights[intent]
        products = catalogs[intent]
        # Skew-phrase queries buy only the deepest slice of the catalog,
        # with a reversed sharp profile: the base phrase's residual mass
        # there keeps the phrasings co-purchase-linked, but the
        # distributions are nearly disjoint, so mined importance is
        # genuinely low.
        n_skew = _slice_width(len(products))
        skew_weights = np.zeros(len(products))
        skew_weights[len(products) - n_skew:] = (
            (np.arange(n_skew) + 1.0) ** -2.0
        )[::-1]
        for query, volume in zip(variants, volumes):
            if volume <= 0:
                log_rows.append((query, "", 0))
                continue
            profile = skew_weights if variant_form[query] == "skew" else base_weights
            noise = np_rng.lognormal(0.0, _NOISE_SIGMA, size=len(products))
            probs = profile * noise
            probs /= probs.sum()
            # Sparse traffic only reaches the popular core of its profile;
            # without this cap, noise scatters single purchases into deep
            # catalog slices and fabricates cross-slice co-purchases.
            support_cap = max(2, min(len(products), int(round(volume * 0.6))))
            if support_cap < int(np.count_nonzero(probs)):
                keep = np.argsort(-probs, kind="stable")[:support_cap]
                mask = np.zeros_like(probs)
                mask[keep] = 1.0
                probs *= mask
                probs /= probs.sum()
            counts = np_rng.multinomial(int(volume), probs)
            emitted = False
            for product, count in zip(products, counts):
                if count > 0:
                    log_rows.append((query, product, int(count)))
                    emitted = True
            if not emitted:
                log_rows.append((query, "", 0))

    ground_truth = SynthGroundTruth(
        query_intent, frozenset(confusable_pairs), frozenset(doppel_pairs)
    )
    audit_labels = _sample_audit_labels(
        config, rng, ground_truth, queries_by_intent, intent_tokens, variant_form
    )

    script_map = {}
    for word in sorted(used_words - set(_STOPWORDS)):
        script_map[word + "q"] = word
    norm_config = NormalizationConfig(
        stopwords=frozenset(_STOPWORDS),
        script_map=script_map,
        protected_entities=frozenset(brands),
        stemmer_rules=(("z", ""),),
    )
    return SynthResult(
        seed=seed,
        log_rows=log_rows,
        ground_truth=ground_truth,
        audit_labels=audit_labels,
        norm_config=norm_config,
        variant_form=variant_form,
    )


def _sample_audit_labels(
    config: SynthConfig,
    rng: random.Random,
    truth: SynthGroundTruth,
    queries_by_intent: Mapping[str, list[str]],
    intent_tokens: Mapping[str, tuple[str, ...]],
    variant_form: Mapping[str, str],
) -> list[AuditLabel]:
    """Balanced 3-way sample aimed at the planted lexical traps.

    Pairs are drawn from each intent's behavior-rich half so the labels
    measure trained behavior rather than cold-start noise.  Most strict
    pairs cross the base/alternate phrasing boundary (lexically far, same
    behavior) and most not-relevant pairs come from doppelganger intents
    (lexically near, no shared behavior), so a purely textual scorer
    misorders the classes.
    """
    intents = sorted(queries_by_intent)
    confusable = sorted(truth.confusable_intents)
    doppel = sorted(truth.doppel_intents)
    per_class = config.n_audit_pairs // 3
    labels: list[AuditLabel] = []
    seen: set[tuple[str, str]] = set()
    per_label: Counter[int] = Counter()

    half = max(2, config.queries_per_intent // 2)

    def rich(intent: str, form: str | None = None) -> list[str]:
        head = queries_by_intent[intent][:half]
        if form is None:
            return head
        return [q for q in head if variant_form.get(q) == form]

    def add(source: str, target: str, label: int) -> bool:
        if source == target or (source, target) in seen:
            return False
        seen.add((source, target))
        labels.append(AuditLabel(source, target, label))
        per_label[label] += 1
        return True

    guard = 0
    while per_label[LABEL_STRICT] < per_class and guard < 10000:
        guard += 1
        intent = rng.choice(intents)
        base = rich(intent, "base")
        synonyms = rich(intent, "alt") + rich(intent, "skew")
        if rng.random() < 0.6 and base and synonyms:
            add(rng.choice(base), rng.choice(synonyms), LABEL_STRICT)
        else:
            add(*rng.sample(rich(intent), 2), LABEL_STRICT)
    guard = 0
    while (
        confusable
        and per_label[LABEL_PARTIAL] < per_class
        and guard < 10000
    ):
        guard += 1
        parent, child = rng.choice(confusable)
        add(rng.choice(rich(parent)), rng.choice(rich(child)), LABEL_PARTIAL)
    by_generic: dict[str, list[str]] = {}
    for intent in intents:
        by_generic.setdefault(intent_tokens[intent][0], []).append(intent)
    guard = 0
    while len(labels) < config.n_audit_pairs and guard < 20000:
        guard += 1
        roll = rng.random()
        if doppel and roll < 0.65:
            intent_a, intent_b = rng.choice(doppel)
            pool_a = rich(intent_a, "base") or rich(intent_a)
            pool_b = rich(intent_b, "base") or rich(intent_b)
            query_a, query_b = rng.choice(pool_a), rng.choice(pool_b)
        else:
            if roll < 0.825:
                generic = rng.choice(sorted(by_generic))
                group = by_generic[generic]
                if len(group) < 2:
                    continue
                intent_a, intent_b = rng.sample(group, 2)
            else:
                intent_a, intent_b = rng.sample(intents, 2)
            query_a = rng.choice(rich(intent_a))
            query_b = rng.choice(rich(intent_b))
        if truth.relation(query_a, query_b) != RELATION_UNRELATED:
            continue
        add(query_a, query_b, LABEL_NOT_RELEVANT)
    return labels


def save_ground_truth(truth: SynthGroundTruth, intents_path, relations_path) -> None:
    """Write the two files that ``load_ground_truth`` reads."""
    write_tsv(
        intents_path,
        INTENTS_KIND,
        sorted(truth.query_intent.items()),
        columns=("query", "intent"),
    )
    relation_rows = [
        (a, b, RELATION_CONFUSABLE)
        for a, b in sorted(truth.confusable_intents)
    ] + [
        (a, b, RELATION_DOPPEL)
        for a, b in sorted(truth.doppel_intents)
    ]
    write_tsv(
        relations_path,
        RELATIONS_KIND,
        relation_rows,
        columns=("intent_a", "intent_b", "relation"),
    )


def load_ground_truth(intents_path, relations_path) -> SynthGroundTruth:
    _, intent_rows = read_tsv(intents_path, INTENTS_KIND, has_columns=True)
    _, relation_rows = read_tsv(relations_path, RELATIONS_KIND, has_columns=True)
    return SynthGroundTruth(
        {query: intent for query, intent in intent_rows},
        frozenset(
            canonical_pair(a, b)
            for a, b, rel in relation_rows
            if rel == RELATION_CONFUSABLE
        ),
        frozenset(
            canonical_pair(a, b)
            for a, b, rel in relation_rows
            if rel == RELATION_DOPPEL
        ),
    )
