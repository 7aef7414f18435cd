"""Desk-scale encoder pair: hashed n-gram bi- and cross-encoders.

Texts become bags of boundary-marked character 2-, 3- and 4-grams
(``NGRAM_SIZES``) hashed into a fixed bucket space.  Checkpoints record
these sizes, and loading rejects a checkpoint made with others.  Each
model keeps an interned ``Featurizer`` table, so it featurizes a
distinct text once.  The bi-encoder projects the bag
linearly and L2-normalizes, so cosine similarity is a plain dot product.
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
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy import sparse

from .files import FileFormatError, atomic_write

NGRAM_SIZES = (2, 3, 4)
_BOUNDARY_OPEN = "^"
_BOUNDARY_CLOSE = "$"
_NORM_FLOOR = 1e-12


def _hash_bucket(ngram: str, feature_dim: int) -> int:
    digest = hashlib.blake2b(ngram.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % feature_dim


def featurize(text: str, feature_dim: int = 1 << 14) -> dict[int, float]:
    """Hashed character 2-, 3- and 4-gram counts with "^"/"$" boundary markers."""
    if not text:
        raise ValueError("cannot featurize empty text")
    padded = _BOUNDARY_OPEN + text + _BOUNDARY_CLOSE
    buckets: dict[int, float] = {}
    for size in NGRAM_SIZES:
        for i in range(len(padded) - size + 1):
            bucket = _hash_bucket(padded[i:i + size], feature_dim)
            buckets[bucket] = buckets.get(bucket, 0.0) + 1.0
    return buckets


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


def _row_of_entry(indptr: np.ndarray) -> np.ndarray:
    """The row number of every stored entry of a CSR matrix."""
    return np.repeat(np.arange(len(indptr) - 1, dtype=np.int64), np.diff(indptr))


def _grown(array: np.ndarray, size: int) -> np.ndarray:
    """``array`` if it holds ``size`` items, else a copy with doubled room."""
    if size <= len(array):
        return array
    grown = np.zeros(max(size, 2 * len(array)), dtype=array.dtype)
    grown[:len(array)] = array
    return grown


class Featurizer:
    """Interned feature table: text -> row id, rows in one growing CSR.

    A text is featurized on its first lookup only; a batch is a gather of
    its rows, each holding sorted bucket indices and their counts.
    """

    def __init__(self, feature_dim: int) -> None:
        if feature_dim < 1:
            raise ValueError(f"feature_dim must be >= 1, got {feature_dim}")
        self.feature_dim = int(feature_dim)
        self._ids: dict[str, int] = {}
        self._indptr = np.zeros(64, dtype=np.int64)
        self._indices = np.zeros(1024, dtype=np.int32)
        self._data = np.zeros(1024)

    def _intern(self, text: str) -> int:
        buckets = featurize(text, self.feature_dim)
        row = len(self._ids)
        start = self._indptr[row]
        end = start + len(buckets)
        self._indptr = _grown(self._indptr, row + 2)
        self._indices = _grown(self._indices, end)
        self._data = _grown(self._data, end)
        order = sorted(buckets)
        self._indices[start:end] = order
        self._data[start:end] = [buckets[b] for b in order]
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

    def row(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        """Sorted bucket indices and counts for one text."""
        row = self.ids([text])[0]
        start, end = self._indptr[row], self._indptr[row + 1]
        return self._indices[start:end], self._data[start:end]

    def matrix(self, texts: Sequence[str]) -> sparse.csr_matrix:
        rows = self.ids(texts)  # may grow the table, so gather after
        indptr, indices, data = _gather_rows(
            self._indptr, self._indices, self._data, rows
        )
        return sparse.csr_matrix(
            (data, indices, indptr), shape=(len(texts), self.feature_dim)
        )


def _uniform_init(rng: np.random.Generator, fan_in: int, shape: tuple) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class BiEncoderModel:
    """Linear projection of hashed n-grams onto the unit sphere."""

    kind = "bi-encoder"

    def __init__(self, projection: np.ndarray, seed: int = 0) -> None:
        self.projection = np.asarray(projection, dtype=np.float64)
        if self.projection.ndim != 2:
            raise ValueError("projection must be a 2-d matrix")
        self.seed = int(seed)
        self.featurizer = Featurizer(self.projection.shape[0])

    @classmethod
    def initialize(
        cls, feature_dim: int, embed_dim: int, seed: int = 0
    ) -> "BiEncoderModel":
        rng = np.random.default_rng(seed)
        projection = _uniform_init(rng, feature_dim, (feature_dim, embed_dim))
        return cls(projection, seed)

    @property
    def feature_dim(self) -> int:
        return self.projection.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.projection.shape[1]

    def parameters(self) -> dict[str, np.ndarray]:
        return {"projection": self.projection}

    def set_parameters(self, params: Mapping[str, np.ndarray]) -> None:
        self.projection = np.asarray(params["projection"], dtype=np.float64)

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        units, _ = self.embed_many_with_backward(texts)
        return units

    def embed(self, text: str) -> np.ndarray:
        return self.embed_many([text])[0]

    def embed_many_with_backward(
        self, texts: Sequence[str]
    ) -> tuple[np.ndarray, Callable[[np.ndarray], dict[str, np.ndarray]]]:
        """Unit embeddings plus a closure mapping dL/dunits to dL/dparams."""
        features = self.featurizer.matrix(texts)
        raw = features @ self.projection
        norms = np.linalg.norm(raw, axis=1)
        degenerate = np.flatnonzero(norms < _NORM_FLOOR)
        if degenerate.size:
            raise ValueError(
                f"text {texts[degenerate[0]]!r} projects to a zero vector"
            )
        units = raw / norms[:, None]

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
    maps each pair to its row; ``targets`` holds one row per pair.  The
    min and surplus blocks ``both``/``surplus`` are non-zero only on
    their pair's source buckets.  With one distinct source, ``columns``
    lists that source's buckets and ``sources``, ``both`` and ``surplus``
    are dense on them; otherwise ``columns`` is ``slice(None)`` and
    those blocks are CSR over every bucket.
    """

    sources: np.ndarray | sparse.csr_matrix
    source_of_pair: np.ndarray
    targets: sparse.csr_matrix
    columns: np.ndarray | slice
    both: np.ndarray | sparse.csr_matrix
    surplus: np.ndarray | sparse.csr_matrix


class CrossEncoderModel:
    """Position-aware MLP scorer over joint pair features.

    The joint row concatenates four blocks in the hashed bucket space:
    source counts, target counts, elementwise min, and the positive part
    of source minus target.  Swapping the pair permutes the first two
    blocks and changes the fourth, so scores are direction-sensitive.
    """

    kind = "cross-encoder"
    N_BLOCKS = 4

    def __init__(
        self,
        weights: Sequence[np.ndarray],
        biases: Sequence[np.ndarray],
        feature_dim: int,
        seed: int = 0,
    ) -> None:
        if len(weights) != len(biases):
            raise ValueError("weights and biases must pair up")
        self.weights = [np.asarray(w, dtype=np.float64) for w in weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in biases]
        if self.weights[0].shape[0] != self.N_BLOCKS * feature_dim:
            raise ValueError(
                f"first layer expects {self.N_BLOCKS}*feature_dim="
                f"{self.N_BLOCKS * feature_dim} inputs, got {self.weights[0].shape[0]}"
            )
        if self.weights[-1].shape[1] != 1:
            raise ValueError("final layer must produce a scalar score")
        self.feature_dim = int(feature_dim)
        self.seed = int(seed)
        self.featurizer = Featurizer(self.feature_dim)

    @classmethod
    def initialize(
        cls,
        feature_dim: int,
        hidden_dims: Sequence[int] = (64, 16),
        seed: int = 0,
    ) -> "CrossEncoderModel":
        rng = np.random.default_rng(seed)
        dims = [cls.N_BLOCKS * feature_dim, *hidden_dims, 1]
        weights = []
        biases = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            weights.append(_uniform_init(rng, fan_in, (fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return cls(weights, biases, feature_dim, seed)

    @property
    def hidden_dims(self) -> tuple[int, ...]:
        return tuple(w.shape[1] for w in self.weights[:-1])

    def parameters(self) -> dict[str, np.ndarray]:
        params: dict[str, np.ndarray] = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            params[f"w{i}"] = w
            params[f"b{i}"] = b
        return params

    def set_parameters(self, params: Mapping[str, np.ndarray]) -> None:
        for i in range(len(self.weights)):
            self.weights[i] = np.asarray(params[f"w{i}"], dtype=np.float64)
            self.biases[i] = np.asarray(params[f"b{i}"], dtype=np.float64)

    def joint_matrix(self, pairs: Sequence[tuple[str, str]]) -> PairBlocks:
        """The pairs' first-layer inputs, block by block (see PairBlocks)."""
        for source, target in pairs:
            if not source or not target:
                raise ValueError("cannot score a pair with empty text")
        first_seen: dict[str, int] = {}
        source_of_pair = np.fromiter(
            (first_seen.setdefault(s, len(first_seen)) for s, _ in pairs),
            dtype=np.int64,
            count=len(pairs),
        )
        targets = self.featurizer.matrix([t for _, t in pairs])
        target_rows = _row_of_entry(targets.indptr)
        if len(first_seen) == 1:
            # Dense on the source's buckets: M and R are zero elsewhere.
            # This beats the CSR form below on one-source calls (serve
            # runs in BENCH_6.json); with many sources, dense rows over
            # all their buckets would cost more than CSR.
            columns, counts = self.featurizer.row(pairs[0][0])
            position = np.full(self.feature_dim, -1, dtype=np.int64)
            position[columns] = np.arange(len(columns))
            at = position[targets.indices]
            hit = at >= 0
            on_source = np.zeros((len(pairs), len(columns)))
            on_source[target_rows[hit], at[hit]] = targets.data[hit]
            return PairBlocks(
                counts[None, :],
                source_of_pair,
                targets,
                columns,
                np.minimum(on_source, counts),
                np.maximum(counts - on_source, 0.0),
            )
        # Sparse: each pair's source entries, matched against its target's.
        sources = self.featurizer.matrix(list(first_seen))
        s_ptr, s_cols, s_counts = _gather_rows(
            sources.indptr, sources.indices, sources.data, source_of_pair
        )
        s_rows = _row_of_entry(s_ptr)
        t_keys = target_rows * self.feature_dim + targets.indices
        s_keys = s_rows * self.feature_dim + s_cols
        at = np.minimum(np.searchsorted(t_keys, s_keys), len(t_keys) - 1)
        hit = t_keys[at] == s_keys
        on_source = np.where(hit, targets.data[at], 0.0)
        surplus = np.maximum(s_counts - on_source, 0.0)

        def csr(values: np.ndarray, keep: np.ndarray) -> sparse.csr_matrix:
            indptr = np.zeros(len(pairs) + 1, dtype=np.int64)
            np.cumsum(np.bincount(s_rows[keep], minlength=len(pairs)), out=indptr[1:])
            return sparse.csr_matrix(
                (values[keep], s_cols[keep], indptr),
                shape=(len(pairs), self.feature_dim),
            )

        return PairBlocks(
            sources,
            source_of_pair,
            targets,
            slice(None),
            csr(np.minimum(s_counts, on_source), hit),
            csr(surplus, surplus > 0.0),
        )

    def _first_layer(self, blocks: PairBlocks) -> np.ndarray:
        w_s, w_t, w_m, w_r = self._blocks_of(self.weights[0])
        cols = blocks.columns
        value = (blocks.sources @ w_s[cols])[blocks.source_of_pair]
        value += blocks.targets @ w_t
        value += blocks.both @ w_m[cols]
        value += blocks.surplus @ w_r[cols]
        value += self.biases[0]
        return value

    def _first_layer_grad(self, blocks: PairBlocks, delta: np.ndarray) -> np.ndarray:
        grad = np.zeros_like(self.weights[0])
        g_s, g_t, g_m, g_r = self._blocks_of(grad)
        cols = blocks.columns
        per_source = np.zeros((blocks.sources.shape[0], delta.shape[1]))
        np.add.at(per_source, blocks.source_of_pair, delta)
        g_s[cols] = blocks.sources.T @ per_source
        g_t[:] = blocks.targets.T @ delta
        g_m[cols] = blocks.both.T @ delta
        g_r[cols] = blocks.surplus.T @ delta
        return grad

    def _blocks_of(self, first: np.ndarray) -> list[np.ndarray]:
        """Views of a first-layer array's S, T, M and R row blocks."""
        f = self.feature_dim
        return [first[i * f:(i + 1) * f] for i in range(self.N_BLOCKS)]

    def score_many(self, pairs: Sequence[tuple[str, str]]) -> np.ndarray:
        scores, _ = self.score_many_with_backward(pairs)
        return scores

    def score_many_with_backward(
        self, pairs: Sequence[tuple[str, str]]
    ) -> tuple[np.ndarray, Callable[[np.ndarray], dict[str, np.ndarray]]]:
        """Scores plus a closure mapping dL/dscores to dL/dparams."""
        blocks = self.joint_matrix(pairs)
        value = self._first_layer(blocks)
        hidden: list[np.ndarray] = []
        for w, b in zip(self.weights[1:], self.biases[1:]):
            hidden.append(np.tanh(value))
            value = hidden[-1] @ w + b
        scores = value.reshape(-1)
        if not np.all(np.isfinite(scores)):
            raise FloatingPointError("cross-encoder produced a non-finite score")

        def backward(grad_scores: np.ndarray) -> dict[str, np.ndarray]:
            grads: dict[str, np.ndarray] = {}
            delta = np.asarray(grad_scores, dtype=np.float64).reshape(-1, 1)
            for layer in range(len(self.weights) - 1, 0, -1):
                inputs = hidden[layer - 1]
                grads[f"w{layer}"] = inputs.T @ delta
                grads[f"b{layer}"] = delta.sum(axis=0)
                delta = delta @ self.weights[layer].T
                delta = delta * (1.0 - inputs**2)
            grads["w0"] = self._first_layer_grad(blocks, delta)
            grads["b0"] = delta.sum(axis=0)
            return grads

        return scores, backward


_CHECKPOINT_VERSION = 1


def _model_meta(model) -> dict:
    meta = {
        "kind": model.kind,
        "version": _CHECKPOINT_VERSION,
        "ngram_sizes": list(NGRAM_SIZES),
        "seed": model.seed,
    }
    if isinstance(model, BiEncoderModel):
        meta["feature_dim"] = model.feature_dim
        meta["embed_dim"] = model.embed_dim
    else:
        meta["feature_dim"] = model.feature_dim
        meta["hidden_dims"] = list(model.hidden_dims)
    return meta


def params_checksum(model) -> str:
    """Stable digest of architecture plus parameters, for provenance tags."""
    digest = hashlib.sha256()
    digest.update(json.dumps(_model_meta(model), sort_keys=True).encode("utf-8"))
    for name in sorted(model.parameters()):
        array = np.ascontiguousarray(model.parameters()[name], dtype=np.float64)
        digest.update(name.encode("utf-8"))
        digest.update(array.tobytes())
    return digest.hexdigest()


def save_checkpoint(model, path) -> str:
    """Write a versioned .npz checkpoint; returns the parameter checksum."""
    meta_bytes = json.dumps(_model_meta(model), sort_keys=True).encode("utf-8")
    arrays = {f"param_{k}": v for k, v in model.parameters().items()}
    with atomic_write(path, "wb") as fh:
        np.savez(fh, meta=np.frombuffer(meta_bytes, dtype=np.uint8), **arrays)
    return params_checksum(model)


def load_checkpoint(path):
    """Load either encoder kind; rejects version or dimension mismatches."""
    path = Path(path)
    with np.load(path) as bundle:
        if "meta" not in bundle:
            raise FileFormatError(f"{path}: not an encoder checkpoint (no meta)")
        meta = json.loads(bytes(bundle["meta"].tobytes()).decode("utf-8"))
        params = {
            name[len("param_"):]: bundle[name]
            for name in bundle.files
            if name.startswith("param_")
        }
    if meta.get("version") != _CHECKPOINT_VERSION:
        raise FileFormatError(f"{path}: unsupported checkpoint version {meta.get('version')!r}")
    if meta.get("ngram_sizes") != list(NGRAM_SIZES):
        raise FileFormatError(
            f"{path}: n-gram sizes {meta.get('ngram_sizes')!r} differ from the"
            f" featurizer's {list(NGRAM_SIZES)}"
        )
    kind = meta.get("kind")
    if kind == BiEncoderModel.kind:
        projection = params.get("projection")
        if projection is None or projection.ndim != 2:
            raise FileFormatError(f"{path}: missing or malformed projection matrix")
        if list(projection.shape) != [meta["feature_dim"], meta["embed_dim"]]:
            raise FileFormatError(
                f"{path}: projection shape {projection.shape} does not match "
                f"header dims ({meta['feature_dim']}, {meta['embed_dim']})"
            )
        return BiEncoderModel(projection, meta["seed"])
    if kind == CrossEncoderModel.kind:
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
        return CrossEncoderModel(weights, biases, meta["feature_dim"], meta["seed"])
    raise FileFormatError(f"{path}: unknown checkpoint kind {kind!r}")
