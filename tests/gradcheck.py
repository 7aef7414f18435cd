"""Central finite-difference gradient oracle shared by unit and acceptance
tests, and the float64 models it checks."""

from __future__ import annotations

from unittest import mock

import numpy as np

from qreform import encoders


def initialized(cls, dtype, *args, **kwargs):
    """``cls.initialize(*args, **kwargs)`` with parameters of ``dtype``,
    from the same draws.  A model computes in its parameters' dtype, so
    the checks made at float64 precision build float64 models; those are
    the models ``initialize`` made before it made float32."""
    with mock.patch.object(encoders, "DTYPE", np.dtype(dtype)):
        return cls.initialize(*args, **kwargs)


def finite_difference_grads(model, loss_of_model, eps=1e-6):
    """Central differences of ``loss_of_model(model)`` w.r.t. every parameter."""
    base = {name: p.copy() for name, p in model.parameters().items()}
    grads = {}
    for name, value in base.items():
        grad = np.zeros_like(value)
        flat = grad.reshape(-1)
        perturbed = {k: v.copy() for k, v in base.items()}
        for i in range(value.size):
            for sign in (+1.0, -1.0):
                perturbed[name] = base[name].copy()
                perturbed[name].reshape(-1)[i] += sign * eps
                model.set_parameters(perturbed)
                if sign > 0:
                    plus = loss_of_model(model)
                else:
                    minus = loss_of_model(model)
            flat[i] = (plus - minus) / (2.0 * eps)
        perturbed[name] = base[name].copy()
        grads[name] = grad
    model.set_parameters(base)
    return grads


def max_relative_error(analytic, numeric, floor=1e-8):
    """Worst-case |a - n| / max(|a|, |n|, floor) over all parameters."""
    worst = 0.0
    for name, a in analytic.items():
        n = numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst
