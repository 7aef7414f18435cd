"""Desk-scale encoder pair: hashed n-gram bi- and cross-encoders.

Texts become bags of boundary-marked character 2-, 3- and 4-grams
(``NGRAM_SIZES``) hashed into a fixed bucket space.  Checkpoints record
these sizes, and loading rejects a checkpoint made with others.  A model
reads its features from an interned ``Featurizer`` table, so a distinct
batch text is featurized once per table.  During a build the tables are
owned by the run: ``run_pipeline`` holds one ``{feature_dim: Featurizer}``
map and passes it to every model it builds or loads (``featurizers=``),
so a batch text is featurized once per ``feature_dim`` for the whole
build, and the map is dropped when the run returns.  A model made without
that map, as for serving, keeps a table of its own.  There is no
process-wide table.  The bi-encoder projects the bag linearly and
L2-normalizes, so cosine similarity is a plain dot product; it projects
each distinct text of a batch once and copies its row to each occurrence.
The cross-encoder scores an ordered pair through a small MLP over four
feature blocks: source bag S, target bag T, elementwise min
M = min(S, T) and surplus R = (S - T)+, which makes it position-aware by
construction.  Its first layer is computed block by block,
S·W_s + T·W_t + M·W_m + R·W_r + b0: S·W_s once per distinct source, and
M and R only on the source's buckets, the only ones where they can be
non-zero.  Both models expose closed-form backward passes; the training
module only ever sees parameter dicts and same-shaped gradient dicts.
The encoders operate on raw text, not normalized text, so they must
learn surface invariance instead of inheriting it.

Dtype.  Training and serving state is float32 (``DTYPE``): ``initialize``
makes float32 parameters, and a checkpoint records its dtype.  A model
computes in the dtype of its parameter arrays, which must share one of
``FLOAT_DTYPES``; its activations, caches and gradients take that dtype,
given dL/dunits in it (the cross-encoder casts dL/dscores).  Feature counts
are float32 whatever the model's dtype: they are small whole numbers, so
float32 holds them exactly, and a float64 model (as the gradient checks
build from float64 arrays) reads them as the same float64 values.

Serving path.  ``BiEncoderModel.embed(text)`` and the one-source
scoring featurize their source without storing it, so the tables hold only
batch texts (training, the index, candidates) and a stream of distinct
queries does not grow them.  A request hashes its query once: the caller
passes the ``_ngram_digests`` to ``embed`` and to ``score_pool``, and they
are read only for a text the table lacks.  ``embed`` builds no scipy
matrix: it scales the query's projection rows by their counts and sums
them with ``np.cumsum`` in bucket order, which is the order in which
scipy's CSR product adds ``count * row`` to a zero row, so it equals
``embed_many`` bit for bit.  A running sum fixes that order; a reduction
such as ``np.sum`` leaves it to numpy.
The re-ranker scores a request by pool position, not by text.
``CrossEncoderModel.pool`` builds a ``CandidatePool`` for an index's
``query_ids`` on first use and holds one pool at a time, so a request's
index positions are pool positions.  The pool lists its texts' entries by
bucket, so the candidates' counts on the query's buckets are read from the
query's buckets only.  ``score_many`` scores pairs that share one source
on a pool of their targets through the same ``_one_source_blocks``, so
there is one one-source implementation.  It reads each target's T·W_t
row from a per-model cache filled on first use;
``score_many_with_backward`` computes that term afresh.  Both are
row-wise CSR products, so cached and fresh scores agree bit for bit.
``parameters()`` and ``set_parameters()`` drop the cache, because the
arrays ``parameters()`` hands out are the live ones an optimizer updates
in place; while the cache holds rows, the first-layer array is read-only,
so a write through an older reference raises instead of leaving stale
rows behind.  The tables and the caches are unsynchronized: a model serves
one thread at a time.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy import sparse

from .files import FileFormatError, read_npz, require_dtype, require_keys, write_npz

NGRAM_SIZES = (2, 3, 4)
_BOUNDARY_OPEN = "^"
_BOUNDARY_CLOSE = "$"
_NORM_FLOOR = 1e-12
# The dtype ``initialize`` makes, and the dtypes a model may compute in.
DTYPE = np.dtype(np.float32)
FLOAT_DTYPES = (DTYPE, np.dtype(np.float64))
# Feature counts: whole numbers, exact in float32.
_COUNT_DTYPE = np.float32


def _ngram_digests(text: str) -> np.ndarray:
    """64-bit blake2b digests of the text's boundary-marked n-grams."""
    if not text:
        raise ValueError("cannot featurize empty text")
    padded = _BOUNDARY_OPEN + text + _BOUNDARY_CLOSE
    if padded.isascii():
        # One byte per character: slices of one encoding are the n-grams'.
        encoded = padded.encode("ascii")
        grams = (
            encoded[i:i + size]
            for size in NGRAM_SIZES
            for i in range(len(encoded) - size + 1)
        )
    else:
        grams = (
            padded[i:i + size].encode("utf-8")
            for size in NGRAM_SIZES
            for i in range(len(padded) - size + 1)
        )
    joined = b"".join(hashlib.blake2b(gram, digest_size=8).digest() for gram in grams)
    return np.frombuffer(joined, dtype=">u8").astype(np.uint64)


def _bucket_counts(
    text: str, feature_dim: int, digests: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted bucket indices of the text's n-grams and how often each occurs.

    ``digests``, if given, must be ``_ngram_digests(text)``; the text is
    then not hashed again.
    """
    if digests is None:
        digests = _ngram_digests(text)
    buckets = np.sort(digests % np.uint64(feature_dim))
    edge = np.empty(len(buckets) + 1, dtype=bool)
    edge[0] = edge[-1] = True
    np.not_equal(buckets[1:], buckets[:-1], out=edge[1:-1])
    bounds = np.flatnonzero(edge)  # each run of equal buckets' start, then the end
    return buckets[bounds[:-1]].astype(np.int32), np.diff(bounds).astype(_COUNT_DTYPE)


def featurize(text: str, feature_dim: int = 1 << 14) -> dict[int, float]:
    """Hashed character 2-, 3- and 4-gram counts with "^"/"$" boundary
    markers, keyed in ascending bucket order."""
    indices, counts = _bucket_counts(text, feature_dim)
    return dict(zip(indices.tolist(), counts.tolist()))


def _gather_rows(
    indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR arrays (indptr, indices, data) of the given rows, in that order."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    out_ptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(lengths, out=out_ptr[1:])
    flat = np.repeat(starts - out_ptr[:-1], lengths) + np.arange(out_ptr[-1])
    return out_ptr, indices[flat], data[flat]


def _csr(
    arrays: tuple[np.ndarray, np.ndarray, np.ndarray], feature_dim: int
) -> sparse.csr_matrix:
    indptr, indices, data = arrays
    return sparse.csr_matrix((data, indices, indptr), shape=(len(indptr) - 1, feature_dim))


def _row_of_entry(indptr: np.ndarray) -> np.ndarray:
    """The row number of every stored entry of a CSR matrix."""
    return np.repeat(np.arange(len(indptr) - 1, dtype=np.int64), np.diff(indptr))


def _grown(array: np.ndarray, size: int) -> np.ndarray:
    """``array`` if it holds ``size`` rows, else a copy with doubled room."""
    if size <= len(array):
        return array
    grown = np.zeros((max(size, 2 * len(array)), *array.shape[1:]), dtype=array.dtype)
    grown[:len(array)] = array
    return grown


class Featurizer:
    """Interned feature table: text -> row id, rows in one growing CSR.

    A text is featurized on its first lookup only; a batch is a gather of
    its rows, each holding sorted bucket indices and their counts.
    ``row`` reads one text without adding it.
    """

    def __init__(self, feature_dim: int) -> None:
        if feature_dim < 1:
            raise ValueError(f"feature_dim must be >= 1, got {feature_dim}")
        self.feature_dim = int(feature_dim)
        self._ids: dict[str, int] = {}
        self._indptr = np.zeros(64, dtype=np.int64)
        self._indices = np.zeros(1024, dtype=np.int32)
        self._data = np.zeros(1024, dtype=_COUNT_DTYPE)

    def __len__(self) -> int:
        return len(self._ids)

    def _intern(self, text: str) -> int:
        buckets = featurize(text, self.feature_dim)
        row = len(self._ids)
        start = self._indptr[row]
        end = start + len(buckets)
        self._indptr = _grown(self._indptr, row + 2)
        self._indices = _grown(self._indices, end)
        self._data = _grown(self._data, end)
        self._indices[start:end] = list(buckets)
        self._data[start:end] = list(buckets.values())
        self._indptr[row + 1] = end
        self._ids[text] = row
        return row

    def ids(self, texts: Sequence[str]) -> np.ndarray:
        """Row ids of the texts, interning the ones not seen before."""
        table = self._ids
        return np.array(
            [table[t] if t in table else self._intern(t) for t in texts],
            dtype=np.int64,
        )

    def gather(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR arrays (indptr, indices, data) of the given row ids."""
        return _gather_rows(self._indptr, self._indices, self._data, rows)

    def row(
        self, text: str, digests: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sorted bucket indices and counts for one text, which is not
        stored if the table does not hold it already.  ``digests`` (see
        ``_bucket_counts``) are used only for a text the table lacks."""
        row = self._ids.get(text)
        if row is None:
            return _bucket_counts(text, self.feature_dim, digests)
        start, end = self._indptr[row], self._indptr[row + 1]
        return self._indices[start:end], self._data[start:end]

    def matrix(self, texts: Sequence[str]) -> sparse.csr_matrix:
        rows = self.ids(texts)  # may grow the table, so gather after
        return _csr(self.gather(rows), self.feature_dim)


# A run's featurizer tables, one per feature_dim.
Featurizers = dict[int, Featurizer]


def table_for(featurizers: Featurizers | None, feature_dim: int) -> Featurizer:
    """The table for ``feature_dim`` in a run's ``featurizers`` map, added
    to the map on first use; a new table of its own without a map."""
    if featurizers is None:
        return Featurizer(feature_dim)
    table = featurizers.get(feature_dim)
    if table is None:
        table = featurizers[feature_dim] = Featurizer(feature_dim)
    return table


def _distinct(texts: Sequence[str]) -> tuple[list[str], np.ndarray]:
    """The distinct texts in order of first appearance, and each text's
    slot among them."""
    distinct = list(dict.fromkeys(texts))
    slot_of = {text: slot for slot, text in enumerate(distinct)}
    slots = np.fromiter(map(slot_of.__getitem__, texts), dtype=np.int64, count=len(texts))
    return distinct, slots


class CandidatePool:
    """Candidate texts as featurizer rows, with their entries by bucket.

    ``rows`` are the texts' featurizer row ids, in order; a text may
    repeat.  The postings list every entry of those rows sorted by bucket:
    bucket ``b`` owns ``[bucket_ptr[b], bucket_ptr[b + 1])`` of
    ``positions`` (the text's place in the pool) and ``counts``.  So the
    texts' counts on a query's buckets cost a read of those buckets'
    postings, not a pass over every candidate's n-grams.
    """

    def __init__(self, featurizer: Featurizer, texts: Sequence[str]) -> None:
        self.texts = texts
        self.rows = featurizer.ids(texts)
        postings = _csr(featurizer.gather(self.rows), featurizer.feature_dim).tocsc()
        self.bucket_ptr = postings.indptr
        self.positions = postings.indices
        self.counts = postings.data

    def __len__(self) -> int:
        return len(self.rows)

    def counts_on(self, positions: np.ndarray, columns: np.ndarray) -> np.ndarray:
        """Counts of the texts at distinct ``positions`` on the distinct
        buckets ``columns``, dense: ``(len(positions), len(columns))``."""
        n, width = len(positions), len(columns)
        starts = self.bucket_ptr[columns]
        lengths = self.bucket_ptr[columns + 1] - starts
        offsets = np.zeros(width + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        entries = np.repeat(starts - offsets[:-1], lengths) + np.arange(offsets[-1])
        # A posting goes to its text's row and its bucket's column; the
        # postings of texts not asked for go to a spare row after the block.
        row_of = np.full(len(self.rows), n, dtype=np.int64)
        row_of[positions] = np.arange(n)
        slots = row_of.take(self.positions.take(entries)) * width
        slots += np.repeat(np.arange(width), lengths)
        block = np.zeros((n + 1) * width, dtype=self.counts.dtype)
        block[slots] = self.counts.take(entries)
        return block[:n * width].reshape(n, width)


def _uniform_init(rng: np.random.Generator, fan_in: int, shape: tuple) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(DTYPE)


def _parameter_arrays(arrays: Sequence) -> list[np.ndarray]:
    """The arrays, which must share one of ``FLOAT_DTYPES``: the dtype
    the model computes in."""
    arrays = [np.asarray(a) for a in arrays]
    dtypes = {a.dtype for a in arrays}
    if len(dtypes) != 1 or not dtypes <= set(FLOAT_DTYPES):
        raise ValueError(
            f"parameters must share one dtype of {[d.name for d in FLOAT_DTYPES]},"
            f" got {sorted(d.name for d in dtypes)}"
        )
    return arrays


class BiEncoderModel:
    """Linear projection of hashed n-grams onto the unit sphere.

    ``featurizers`` is a run's table map (see ``table_for``); without it
    the model keeps a table of its own.
    """

    kind = "bi-encoder"

    def __init__(
        self,
        projection: np.ndarray,
        seed: int = 0,
        featurizers: Featurizers | None = None,
    ) -> None:
        (self.projection,) = _parameter_arrays([projection])
        if self.projection.ndim != 2:
            raise ValueError("projection must be a 2-d matrix")
        self.seed = int(seed)
        self.featurizer = table_for(featurizers, self.projection.shape[0])

    @classmethod
    def initialize(
        cls,
        feature_dim: int,
        embed_dim: int,
        seed: int = 0,
        featurizers: Featurizers | None = None,
    ) -> "BiEncoderModel":
        rng = np.random.default_rng(seed)
        projection = _uniform_init(rng, feature_dim, (feature_dim, embed_dim))
        return cls(projection, seed, featurizers)

    @property
    def dtype(self) -> np.dtype:
        return self.projection.dtype

    @property
    def feature_dim(self) -> int:
        return self.projection.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.projection.shape[1]

    def parameters(self) -> dict[str, np.ndarray]:
        return {"projection": self.projection}

    def set_parameters(self, params: Mapping[str, np.ndarray]) -> None:
        self.projection = np.asarray(params["projection"], dtype=self.dtype)

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        units, _ = self.embed_many_with_backward(texts)
        return units

    def embed(self, text: str, digests: np.ndarray | None = None) -> np.ndarray:
        """``embed_many([text])[0]`` bit for bit, without storing the text.

        ``digests`` are the text's ``_ngram_digests``, if the caller has
        them already.  The row is summed entry by entry in bucket order, as
        scipy's CSR product sums it; ``+ 0.0`` turns the -0.0 a running
        sum can start from into the product's 0.0.
        """
        columns, counts = self.featurizer.row(text, digests)
        raw = np.cumsum(self.projection[columns] * counts[:, None], axis=0)[-1] + 0.0
        units, _ = self._unit_rows(raw[None, :], [text])
        return units[0]

    def _unit_rows(
        self, raw: np.ndarray, texts: Sequence[str]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Rows of ``raw`` scaled to unit length, and their norms."""
        norms = np.linalg.norm(raw, axis=1)
        degenerate = np.flatnonzero(norms < _NORM_FLOOR)
        if degenerate.size:
            raise ValueError(
                f"text {texts[degenerate[0]]!r} projects to a zero vector"
            )
        return raw / norms[:, None], norms

    def embed_many_with_backward(
        self, texts: Sequence[str]
    ) -> tuple[np.ndarray, Callable[[np.ndarray], dict[str, np.ndarray]]]:
        """Unit embeddings plus a closure mapping dL/dunits to dL/dparams.

        Each distinct text is projected and normalized once, and its rows
        are copied to each occurrence.  A CSR product computes each row on
        its own, so the rows equal a product over every occurrence bit for
        bit; the backward product still runs over every occurrence.
        """
        features = self.featurizer.matrix(texts)
        distinct, slots = _distinct(texts)
        # Slots are numbered in order of first appearance, so a text first
        # appears where the running maximum of the slots grows.
        first = np.flatnonzero(np.diff(np.maximum.accumulate(slots), prepend=-1))
        units, norms = self._unit_rows(features[first] @ self.projection, distinct)
        units, norms = units[slots], norms[slots]

        def backward(grad_units: np.ndarray) -> dict[str, np.ndarray]:
            # Through row normalization: g_raw = (g - (g.u)u) / ||raw||.
            inner = np.sum(grad_units * units, axis=1, keepdims=True)
            grad_raw = (grad_units - inner * units) / norms[:, None]
            return {"projection": features.T @ grad_raw}

        return units, backward


@dataclass(frozen=True)
class PairBlocks:
    """A batch of pairs as the cross-encoder's four first-layer blocks.

    ``sources`` holds one row per distinct source and ``source_of_pair``
    maps each pair to its row.  ``target_ids`` are the targets' featurizer
    row ids; a backward pass builds their scipy matrix.  The min and
    surplus blocks ``both``/``surplus`` are non-zero only on their pair's
    source buckets.  With one distinct source, ``columns`` lists that
    source's buckets and ``sources``, ``both`` and ``surplus`` are dense on
    them; otherwise ``columns`` is ``slice(None)`` and those blocks are CSR
    over every bucket.
    """

    sources: np.ndarray | sparse.csr_matrix
    source_of_pair: np.ndarray
    target_ids: np.ndarray
    columns: np.ndarray | slice
    both: np.ndarray | sparse.csr_matrix
    surplus: np.ndarray | sparse.csr_matrix


class CrossEncoderModel:
    """Position-aware MLP scorer over joint pair features.

    The joint row concatenates four blocks in the hashed bucket space:
    source counts, target counts, elementwise min, and the positive part
    of source minus target.  Swapping the pair permutes the first two
    blocks and changes the fourth, so scores are direction-sensitive.
    ``featurizers`` is a run's table map, as for ``BiEncoderModel``.
    """

    kind = "cross-encoder"
    N_BLOCKS = 4

    def __init__(
        self,
        weights: Sequence[np.ndarray],
        biases: Sequence[np.ndarray],
        feature_dim: int,
        seed: int = 0,
        featurizers: Featurizers | None = None,
    ) -> None:
        if len(weights) != len(biases):
            raise ValueError("weights and biases must pair up")
        arrays = _parameter_arrays([*weights, *biases])
        self.weights, self.biases = arrays[:len(weights)], arrays[len(weights):]
        if self.weights[0].shape[0] != self.N_BLOCKS * feature_dim:
            raise ValueError(
                f"first layer expects {self.N_BLOCKS}*feature_dim="
                f"{self.N_BLOCKS * feature_dim} inputs, got {self.weights[0].shape[0]}"
            )
        if self.weights[-1].shape[1] != 1:
            raise ValueError("final layer must produce a scalar score")
        self.feature_dim = int(feature_dim)
        self.seed = int(seed)
        self.featurizer = table_for(featurizers, self.feature_dim)
        # T·W_t rows by featurizer row id, and the first-layer array this
        # model made read-only while they are cached.
        self._term_rows = np.zeros((0, self.weights[0].shape[1]), dtype=self.dtype)
        self._term_filled = np.zeros(0, dtype=bool)
        self._term_lock: np.ndarray | None = None
        # The candidate pool of the last ``pool`` call.
        self._pool: CandidatePool | None = None

    @classmethod
    def initialize(
        cls,
        feature_dim: int,
        hidden_dims: Sequence[int] = (64, 16),
        seed: int = 0,
        featurizers: Featurizers | None = None,
    ) -> "CrossEncoderModel":
        rng = np.random.default_rng(seed)
        dims = [cls.N_BLOCKS * feature_dim, *hidden_dims, 1]
        weights = []
        biases = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            weights.append(_uniform_init(rng, fan_in, (fan_in, fan_out)))
            biases.append(np.zeros(fan_out, dtype=DTYPE))
        return cls(weights, biases, feature_dim, seed, featurizers)

    @property
    def dtype(self) -> np.dtype:
        return self.weights[0].dtype

    @property
    def hidden_dims(self) -> tuple[int, ...]:
        return tuple(w.shape[1] for w in self.weights[:-1])

    def parameters(self) -> dict[str, np.ndarray]:
        """The live parameter arrays.  Drops the T·W_t cache first, since
        the caller may update them in place."""
        self._drop_target_terms()
        params: dict[str, np.ndarray] = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            params[f"w{i}"] = w
            params[f"b{i}"] = b
        return params

    def set_parameters(self, params: Mapping[str, np.ndarray]) -> None:
        self._drop_target_terms()
        for i in range(len(self.weights)):
            self.weights[i] = np.asarray(params[f"w{i}"], dtype=self.dtype)
            self.biases[i] = np.asarray(params[f"b{i}"], dtype=self.dtype)

    def _drop_target_terms(self) -> None:
        """Forget the cached T·W_t rows and unlock the first layer."""
        if self._term_lock is not None:
            self._term_lock.flags.writeable = True
            self._term_lock = None
        self._term_filled[:] = False

    def _target_term(self, ids: np.ndarray) -> np.ndarray:
        """T·W_t rows of the given featurizer rows, each computed on its
        first use by a row-wise CSR product and kept."""
        size = len(self.featurizer)
        self._term_rows = _grown(self._term_rows, size)
        self._term_filled = _grown(self._term_filled, size)
        missing = ids[~self._term_filled[ids]]
        if missing.size:
            missing = np.unique(missing)
            first = self.weights[0]
            if first.flags.writeable:
                first.flags.writeable = False
                self._term_lock = first
            features = _csr(self.featurizer.gather(missing), self.feature_dim)
            self._term_rows[missing] = features @ self._blocks_of(first)[1]
            self._term_filled[missing] = True
        return self._term_rows[ids]

    def pool(self, texts: tuple[str, ...]) -> CandidatePool:
        """The candidate pool of ``texts``, such as an index's
        ``query_ids``, built on first use.  The model holds one pool at a
        time, keyed by the tuple."""
        if self._pool is None or (self._pool.texts is not texts and self._pool.texts != texts):
            self._pool = CandidatePool(self.featurizer, texts)
        return self._pool

    def _one_source_blocks(
        self,
        source: str,
        pool: CandidatePool,
        positions: np.ndarray,
        source_digests: np.ndarray | None = None,
    ) -> PairBlocks:
        """Blocks of one source against the texts at distinct pool
        positions, dense on the source's buckets: M and R are zero
        elsewhere.  This beats the CSR form on one-source calls (serve runs
        in BENCH_6.json); with many sources, dense rows over all their
        buckets would cost more.  The source is not stored, so a stream of
        distinct sources leaves the table as it was."""
        columns, counts = self.featurizer.row(source, source_digests)
        both = np.minimum(pool.counts_on(positions, columns), counts)
        return PairBlocks(
            counts[None, :],
            np.zeros(len(positions), dtype=np.int64),
            pool.rows[positions],
            columns,
            both,
            counts - both,  # (S - T)+ exactly, since counts are whole numbers
        )

    def joint_matrix(self, pairs: Sequence[tuple[str, str]]) -> PairBlocks:
        """The pairs' first-layer inputs, block by block (see PairBlocks)."""
        source_texts, target_texts = zip(*pairs) if pairs else ((), ())
        if not all(source_texts) or not all(target_texts):
            raise ValueError("cannot score a pair with empty text")
        if pairs and source_texts.count(source_texts[0]) == len(pairs):
            pool = CandidatePool(self.featurizer, target_texts)
            return self._one_source_blocks(source_texts[0], pool, np.arange(len(pool)))
        # Sparse: each pair's source entries, matched against its target's.
        target_ids = self.featurizer.ids(target_texts)
        t_ptr, t_cols, t_counts = self.featurizer.gather(target_ids)
        distinct, source_of_pair = _distinct(source_texts)
        sources = self.featurizer.matrix(distinct)
        s_ptr, s_cols, s_counts = _gather_rows(
            sources.indptr, sources.indices, sources.data, source_of_pair
        )
        s_rows = _row_of_entry(s_ptr)
        target_rows = _row_of_entry(t_ptr)
        t_keys = target_rows * self.feature_dim + t_cols
        s_keys = s_rows * self.feature_dim + s_cols
        at = np.minimum(np.searchsorted(t_keys, s_keys), len(t_keys) - 1)
        hit = t_keys[at] == s_keys
        on_source = np.where(hit, t_counts[at], 0.0)
        surplus = np.maximum(s_counts - on_source, 0.0)

        def csr(values: np.ndarray, keep: np.ndarray) -> sparse.csr_matrix:
            indptr = np.zeros(len(pairs) + 1, dtype=np.int64)
            np.cumsum(np.bincount(s_rows[keep], minlength=len(pairs)), out=indptr[1:])
            return _csr((indptr, s_cols[keep], values[keep]), self.feature_dim)

        return PairBlocks(
            sources,
            source_of_pair,
            target_ids,
            slice(None),
            csr(np.minimum(s_counts, on_source), hit),
            csr(surplus, surplus > 0.0),
        )

    def _first_layer(self, blocks: PairBlocks, target_term: np.ndarray) -> np.ndarray:
        """b0 plus the four block products, with T·W_t given."""
        if isinstance(blocks.columns, slice):
            w_s, _, w_m, w_r = self._blocks_of(self.weights[0])
            value = (blocks.sources @ w_s)[blocks.source_of_pair]
            value += target_term
        else:
            # The source's S, M and R weight rows in one gather; its one
            # S·W_s row reaches every pair by broadcasting.
            f = self.feature_dim
            cols = blocks.columns
            rows = np.concatenate((cols, cols + 2 * f, cols + 3 * f))
            w_s, w_m, w_r = self.weights[0][rows].reshape(3, len(cols), -1)
            value = target_term + blocks.sources @ w_s
        value += blocks.both @ w_m
        value += blocks.surplus @ w_r
        value += self.biases[0]
        return value

    def _first_layer_grad(
        self, blocks: PairBlocks, targets: sparse.csr_matrix, delta: np.ndarray
    ) -> np.ndarray:
        # np.zeros takes pages that are zero already; zeros_like writes them.
        grad = np.zeros(self.weights[0].shape, dtype=self.dtype)
        g_s, g_t, g_m, g_r = self._blocks_of(grad)
        cols = blocks.columns
        per_source = np.zeros((blocks.sources.shape[0], delta.shape[1]), dtype=self.dtype)
        np.add.at(per_source, blocks.source_of_pair, delta)
        g_s[cols] = blocks.sources.T @ per_source
        g_t[:] = targets.T @ delta
        g_m[cols] = blocks.both.T @ delta
        g_r[cols] = blocks.surplus.T @ delta
        return grad

    def _blocks_of(self, first: np.ndarray) -> list[np.ndarray]:
        """Views of a first-layer array's S, T, M and R row blocks."""
        f = self.feature_dim
        return [first[i * f:(i + 1) * f] for i in range(self.N_BLOCKS)]

    def _forward(
        self, blocks: PairBlocks, target_term: np.ndarray
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Scores and the hidden activations behind them."""
        value = self._first_layer(blocks, target_term)
        hidden: list[np.ndarray] = []
        for w, b in zip(self.weights[1:], self.biases[1:]):
            hidden.append(np.tanh(value))
            value = hidden[-1] @ w + b
        scores = value.reshape(-1)
        if not np.all(np.isfinite(scores)):
            raise FloatingPointError("cross-encoder produced a non-finite score")
        return scores, hidden

    def score_pool(
        self,
        source: str,
        pool: CandidatePool,
        positions: np.ndarray,
        source_digests: np.ndarray | None = None,
    ) -> np.ndarray:
        """Scores of one source against the texts at distinct ``positions``
        of ``pool``, each T·W_t row from the cache.  ``source_digests`` are
        the source's ``_ngram_digests``, read only if the table lacks the
        source."""
        blocks = self._one_source_blocks(source, pool, positions, source_digests)
        scores, _ = self._forward(blocks, self._target_term(blocks.target_ids))
        return scores

    def score_many(self, pairs: Sequence[tuple[str, str]]) -> np.ndarray:
        """Scores of the pairs, with each target's T·W_t row from the cache;
        ``joint_matrix`` builds the blocks of pairs that share one source as
        ``score_pool`` does."""
        blocks = self.joint_matrix(pairs)
        scores, _ = self._forward(blocks, self._target_term(blocks.target_ids))
        return scores

    def score_many_with_backward(
        self, pairs: Sequence[tuple[str, str]]
    ) -> tuple[np.ndarray, Callable[[np.ndarray], dict[str, np.ndarray]]]:
        """Scores plus a closure mapping dL/dscores to dL/dparams."""
        blocks = self.joint_matrix(pairs)
        targets = _csr(self.featurizer.gather(blocks.target_ids), self.feature_dim)
        scores, hidden = self._forward(blocks, targets @ self._blocks_of(self.weights[0])[1])

        def backward(grad_scores: np.ndarray) -> dict[str, np.ndarray]:
            grads: dict[str, np.ndarray] = {}
            delta = np.asarray(grad_scores, dtype=self.dtype).reshape(-1, 1)
            for layer in range(len(self.weights) - 1, 0, -1):
                inputs = hidden[layer - 1]
                grads[f"w{layer}"] = inputs.T @ delta
                grads[f"b{layer}"] = delta.sum(axis=0)
                delta = delta @ self.weights[layer].T
                delta = delta * (1.0 - inputs**2)
            grads["w0"] = self._first_layer_grad(blocks, targets, delta)
            grads["b0"] = delta.sum(axis=0)
            return grads

        return scores, backward


# Version 2: parameters of the recorded dtype (version 1 held float64 only).
_CHECKPOINT_VERSION = 2


def _model_meta(model) -> dict:
    meta = {
        "kind": model.kind,
        "version": _CHECKPOINT_VERSION,
        "ngram_sizes": list(NGRAM_SIZES),
        "seed": model.seed,
        "dtype": model.dtype.name,
    }
    if isinstance(model, BiEncoderModel):
        meta["feature_dim"] = model.feature_dim
        meta["embed_dim"] = model.embed_dim
    else:
        meta["feature_dim"] = model.feature_dim
        meta["hidden_dims"] = list(model.hidden_dims)
    return meta


def params_checksum(model) -> str:
    """Stable digest of architecture plus parameters, for provenance tags:
    the meta, which names the dtype, then each array's native bytes."""
    digest = hashlib.sha256()
    digest.update(json.dumps(_model_meta(model), sort_keys=True).encode("utf-8"))
    params = model.parameters()
    for name in sorted(params):
        array = np.ascontiguousarray(params[name])  # a copy only if strided
        digest.update(name.encode("utf-8"))
        digest.update(array)
    return digest.hexdigest()


def save_checkpoint(model, path) -> None:
    """Write a versioned .npz checkpoint."""
    arrays = {f"param_{k}": v for k, v in model.parameters().items()}
    write_npz(path, _model_meta(model), **arrays)


def load_checkpoint(path, featurizers: Featurizers | None = None):
    """Load either encoder kind; rejects missing keys, version, dtype or
    dimension mismatches.  ``featurizers`` is a run's table map, which the
    model reads its features from; without it the model has its own."""
    meta, arrays = read_npz(path)
    params = {
        name[len("param_"):]: array
        for name, array in arrays.items()
        if name.startswith("param_")
    }
    if meta.get("version") != _CHECKPOINT_VERSION:
        raise FileFormatError(f"{path}: unsupported checkpoint version {meta.get('version')!r}")
    if meta.get("ngram_sizes") != list(NGRAM_SIZES):
        raise FileFormatError(
            f"{path}: n-gram sizes {meta.get('ngram_sizes')!r} differ from the"
            f" featurizer's {list(NGRAM_SIZES)}"
        )
    require_dtype(path, meta, params, FLOAT_DTYPES)
    kind = meta.get("kind")
    if kind == BiEncoderModel.kind:
        require_keys(path, "checkpoint meta", meta, ("feature_dim", "embed_dim", "seed"))
        projection = params.get("projection")
        if projection is None or projection.ndim != 2:
            raise FileFormatError(f"{path}: missing or malformed projection matrix")
        if list(projection.shape) != [meta["feature_dim"], meta["embed_dim"]]:
            raise FileFormatError(
                f"{path}: projection shape {projection.shape} does not match "
                f"header dims ({meta['feature_dim']}, {meta['embed_dim']})"
            )
        return BiEncoderModel(projection, meta["seed"], featurizers)
    if kind == CrossEncoderModel.kind:
        require_keys(path, "checkpoint meta", meta, ("feature_dim", "hidden_dims", "seed"))
        n_layers = len(meta["hidden_dims"]) + 1
        try:
            weights = [params[f"w{i}"] for i in range(n_layers)]
            biases = [params[f"b{i}"] for i in range(n_layers)]
        except KeyError as missing:
            raise FileFormatError(f"{path}: missing parameter {missing}") from None
        expected = [
            CrossEncoderModel.N_BLOCKS * meta["feature_dim"],
            *meta["hidden_dims"],
            1,
        ]
        for i, w in enumerate(weights):
            if list(w.shape) != [expected[i], expected[i + 1]]:
                raise FileFormatError(
                    f"{path}: layer {i} shape {w.shape} does not match header "
                    f"dims ({expected[i]}, {expected[i + 1]})"
                )
        return CrossEncoderModel(
            weights, biases, meta["feature_dim"], meta["seed"], featurizers
        )
    raise FileFormatError(f"{path}: unknown checkpoint kind {kind!r}")
