"""The cross-encoder's one-source scoring before it scored by pool position.

``CrossEncoderModel`` now reads a one-source block from a candidate
pool's postings (its targets' entries by bucket) and adds the source's
S·W_s row by broadcasting.  Before, ``joint_matrix`` gathered the targets'
CSR rows, placed each entry among the source's buckets through a spare
column, took min and surplus over the strided view, and ``_first_layer``
repeated S·W_s per pair and gathered the S, M and R weight rows one block
at a time.  Tests compare the model with this older path bit for bit.
"""

from __future__ import annotations

import numpy as np

from qreform.encoders import _csr


def one_source_blocks(model, source, targets, source_digests=None):
    """The source's buckets and counts, and the (both, surplus) blocks
    dense on those buckets, one row per target text."""
    featurizer = model.featurizer
    t_ptr, t_cols, t_counts = featurizer.gather(featurizer.ids(targets))
    columns, counts = featurizer.row(source, source_digests)
    # Each target entry goes to its bucket's place among the source's
    # buckets, or to a spare last column that is dropped.
    width = len(columns) + 1
    place = np.full(model.feature_dim, len(columns), dtype=np.int64)
    place[columns] = np.arange(len(columns))
    slots = place.take(t_cols)
    slots += np.repeat(np.arange(0, len(targets) * width, width), np.diff(t_ptr))
    on_source = np.zeros((len(targets), width), dtype=t_counts.dtype)
    on_source.ravel()[slots] = t_counts
    on_source = on_source[:, :-1]
    surplus = counts - on_source
    np.maximum(surplus, 0.0, out=surplus)
    return columns, counts, np.minimum(on_source, counts), surplus


def one_source_scores(model, source, targets, source_digests=None):
    """Scores of ``(source, t)`` for each target text, with T·W_t computed
    afresh by a row-wise CSR product."""
    columns, counts, both, surplus = one_source_blocks(model, source, targets, source_digests)
    w_s, w_t, w_m, w_r = model._blocks_of(model.weights[0])
    featurizer = model.featurizer
    target_term = _csr(featurizer.gather(featurizer.ids(targets)), model.feature_dim) @ w_t
    value = (counts[None, :] @ w_s[columns])[np.zeros(len(targets), dtype=np.int64)]
    value += target_term
    value += both @ w_m[columns]
    value += surplus @ w_r[columns]
    value += model.biases[0]
    for w, b in zip(model.weights[1:], model.biases[1:]):
        value = np.tanh(value) @ w + b
    return value.reshape(-1)
