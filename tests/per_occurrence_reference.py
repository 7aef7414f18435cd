"""The bi-encoder's forward pass before it projected each distinct text once.

``BiEncoderModel.embed_many_with_backward`` now projects and normalizes
each distinct text of a batch once and copies its rows to every
occurrence.  Before, it projected and normalized every occurrence.  Tests
compare the model with this older path bit for bit.
"""

from __future__ import annotations

import numpy as np


def embed_many_with_backward(model, texts):
    """Unit embeddings of every occurrence, each projected on its own,
    plus the closure mapping dL/dunits to dL/dparams."""
    features = model.featurizer.matrix(texts)
    units, norms = model._unit_rows(features @ model.projection, texts)

    def backward(grad_units: np.ndarray) -> dict[str, np.ndarray]:
        inner = np.sum(grad_units * units, axis=1, keepdims=True)
        grad_raw = (grad_units - inner * units) / norms[:, None]
        return {"projection": features.T @ grad_raw}

    return units, backward
