"""Bias-corrected Adam on flat parameter vectors.

Kept as a tiny pure-numpy implementation so both optimizers in this
package (the network trainer and the direct precoder baseline) share one
update rule and its textbook constants :data:`BETA1`, :data:`BETA2` and
:data:`EPS`; the learning rate is the one setting.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["AdamState", "adam_step"]

BETA1 = 0.9  # first-moment decay
BETA2 = 0.999  # second-moment decay
EPS = 1e-8  # added to sqrt(v_hat) before the division


@dataclass
class AdamState:
    """First and second moment accumulators plus the step counter."""

    m: np.ndarray
    v: np.ndarray
    step_count: int = 0

    @classmethod
    def zeros(cls, dim: int) -> "AdamState":
        return cls(m=np.zeros(int(dim)), v=np.zeros(int(dim)))


def adam_step(state: AdamState, grad: np.ndarray, lr: float) -> np.ndarray:
    """Advance the state by one gradient and return the parameter delta.

    The caller applies the returned delta additively; the learning rate is
    already folded in, so it must not be applied twice. On the first step
    the delta is close to -lr * sign(grad) thanks to bias correction.

    ``state.m`` and ``state.v`` are updated in place, each operation in the
    order of the textbook update ``m = b1 m + (1 - b1) g``, ``v = b2 v +
    (1 - b2) g g``, ``-lr m_hat / (sqrt(v_hat) + eps)``, so every bit of it
    is kept. The delta is a fresh array.
    """
    grad = np.asarray(grad, dtype=float)
    if grad.shape != state.m.shape:
        raise ValueError(f"gradient shape {grad.shape} does not match state "
                         f"{state.m.shape}")
    if not lr > 0:
        raise ValueError(f"lr must be positive, got {lr}")
    state.step_count += 1
    t = state.step_count
    m, v = state.m, state.v
    m *= BETA1
    m += (1.0 - BETA1) * grad
    term = (1.0 - BETA2) * grad
    term *= grad
    v *= BETA2
    v += term
    # term becomes sqrt(v_hat) + eps, then the delta divides by it
    np.divide(v, 1.0 - BETA2 ** t, out=term)
    np.sqrt(term, out=term)
    term += EPS
    delta = m / (1.0 - BETA1 ** t)
    delta *= -lr
    delta /= term
    return delta
