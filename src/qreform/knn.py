"""Exact K-nearest-neighbor index over behavior-rich query embeddings.

Brute-force cosine scan: at desk scale exactness is cheap and makes every
downstream metric deterministic.  Entries are stored sorted by query_id,
so a stable sort on descending similarity breaks ties by ascending id.
Any accelerated backend added later must match this module on the same
oracle tests.  The index keeps its embeddings' dtype (float32 from a
model ``initialize`` made) and casts probes to it; ``index.npz`` records
that dtype.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .encoders import FLOAT_DTYPES, params_checksum
from .files import FileFormatError, read_npz, require_dtype, require_keys, write_npz

_UNIT_TOL = 1e-6
# Version 2: embeddings of the recorded dtype (version 1 held float64 only).
_INDEX_VERSION = 2


class KnnIndex:
    """Immutable (query_id, unit embedding) table answering exact top-k."""

    def __init__(
        self,
        query_ids: Sequence[str],
        embeddings: np.ndarray,
        model_checksum: str | None = None,
    ) -> None:
        embeddings = np.asarray(embeddings)
        if embeddings.dtype not in FLOAT_DTYPES:
            raise ValueError(
                f"embeddings must be of {[d.name for d in FLOAT_DTYPES]}, got {embeddings.dtype}"
            )
        if embeddings.ndim != 2 or len(query_ids) != embeddings.shape[0]:
            raise ValueError("need one embedding row per query id")
        if len(query_ids) == 0:
            raise ValueError("cannot build an empty index: no rich queries")
        if len(set(query_ids)) != len(query_ids):
            raise ValueError("query ids must be unique")
        norms = np.linalg.norm(embeddings, axis=1)
        if np.any(np.abs(norms - 1.0) > _UNIT_TOL):
            worst = int(np.argmax(np.abs(norms - 1.0)))
            raise ValueError(
                f"embedding for {query_ids[worst]!r} has norm {norms[worst]!r}, not 1"
            )
        order = sorted(range(len(query_ids)), key=lambda i: query_ids[i])
        self.query_ids: tuple[str, ...] = tuple(query_ids[i] for i in order)
        self.position_of: dict[str, int] = {q: i for i, q in enumerate(self.query_ids)}
        self.embeddings = embeddings[order]
        self.model_checksum = model_checksum

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]

    def __len__(self) -> int:
        return len(self.query_ids)

    def top_k(self, probes: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Each probe's exact top-k entry positions and their similarities,
        by descending dot product.  Entries are id-sorted, so a stable sort
        breaks ties by ascending position, which is ascending query_id."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        probes = np.asarray(probes, dtype=self.embeddings.dtype)
        if probes.ndim != 2 or probes.shape[1] != self.dim:
            raise ValueError(
                f"probe dimension {probes.shape[-1]} does not match index dim {self.dim}"
            )
        sims = probes @ self.embeddings.T
        positions = np.argsort(-sims, axis=1, kind="stable")[:, :k]
        return positions, np.take_along_axis(sims, positions, axis=1)

    def knn(self, probe: np.ndarray, k: int) -> list[tuple[str, float]]:
        """Exact top-k by dot product, ties broken by ascending query_id."""
        return self.knn_many(np.asarray(probe)[None, :], k)[0]

    def knn_many(
        self, probes: np.ndarray, k: int
    ) -> list[list[tuple[str, float]]]:
        positions, sims = self.top_k(probes, k)
        ids = self.query_ids
        return [
            list(zip([ids[i] for i in row], values))
            for row, values in zip(positions.tolist(), sims.tolist())
        ]


def build_index(model, texts: Sequence[str]) -> KnnIndex:
    """Embed the candidate pool, the texts of the rich queries, into an index."""
    texts = sorted(texts)
    return KnnIndex(texts, model.embed_many(texts), model_checksum=params_checksum(model))


def save_index(index: KnnIndex, path) -> None:
    meta = {
        "version": _INDEX_VERSION,
        "dim": index.dim,
        "count": len(index),
        "model_checksum": index.model_checksum,
        "dtype": index.embeddings.dtype.name,
    }
    write_npz(path, meta, query_ids=np.array(index.query_ids), embeddings=index.embeddings)


def load_index(path, expected_model_checksum: str | None = None) -> KnnIndex:
    """Load an index; rejects missing keys and version, dtype, shape, or
    model mismatches."""
    meta, arrays = read_npz(path)
    if meta.get("version") != _INDEX_VERSION:
        raise FileFormatError(f"{path}: unsupported index version {meta.get('version')!r}")
    require_keys(path, "index meta", meta, ("count", "dim"))
    require_keys(path, "index", arrays, ("query_ids", "embeddings"))
    require_dtype(path, meta, {"embeddings": arrays["embeddings"]}, FLOAT_DTYPES)
    ids = [str(q) for q in arrays["query_ids"]]
    embeddings = arrays["embeddings"]
    if embeddings.shape != (meta["count"], meta["dim"]):
        raise FileFormatError(
            f"{path}: embedding block {embeddings.shape} does not match header "
            f"({meta['count']}, {meta['dim']})"
        )
    checksum = meta.get("model_checksum")
    if expected_model_checksum is not None and checksum != expected_model_checksum:
        raise FileFormatError(
            f"{path}: index was built from model {checksum!r}, expected "
            f"{expected_model_checksum!r}"
        )
    return KnnIndex(ids, embeddings, model_checksum=checksum)
