"""Bias-corrected Adam on flat parameter vectors.

Kept as a tiny pure-numpy implementation so both optimizers in this
package (the network trainer and the direct precoder baseline) share one
update rule and its textbook constants :data:`BETA1`, :data:`BETA2` and
:data:`EPS`; the learning rate is the one setting, which a run checks once
with :func:`check_lr` before its first step. A run builds one
:class:`AdamState` from its parameter count.
"""
from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = ["AdamState", "adam_step", "check_lr"]

BETA1 = 0.9  # first-moment decay
BETA2 = 0.999  # second-moment decay
EPS = 1e-8  # added to sqrt(v_hat) before the division


class AdamState:
    """Adam's state for ``dim`` parameters: the first and second moment
    accumulators ``m`` and ``v``, zero, the step counter, and the step's
    two scratch arrays ``delta`` and ``denom``, each its own array."""

    def __init__(self, dim: int):
        self.m = np.zeros(dim)
        self.v = np.zeros(dim)
        self.step_count = 0
        self.delta = np.empty(dim)
        self.denom = np.empty(dim)


def check_lr(lr, key: str = "lr") -> float:
    """``lr`` if it is a finite number > 0; raises ValueError otherwise,
    naming ``key``. The config check runs it on ``meta.lr`` and
    ``direct.lr``, so a config and a library call accept the same rates."""
    if not (isinstance(lr, numbers.Real) and not isinstance(lr, bool)
            and math.isfinite(lr) and lr > 0):
        raise ValueError(f"{key} must be a number > 0, got {lr!r}")
    return lr


def adam_step(state: AdamState, grad: np.ndarray, lr: float,
              params: np.ndarray) -> None:
    """Advance the state by one gradient and add the step to ``params``.

    The learning rate is folded into the step, which :func:`check_lr` has
    vetted. On the first step the delta is close to -lr * sign(grad)
    thanks to bias correction.

    ``state.m`` and ``state.v`` are updated in place, each operation in the
    order of the textbook update ``m = b1 m + (1 - b1) g``, ``v = b2 v +
    (1 - b2) g g``, ``-lr m_hat / (sqrt(v_hat) + eps)``, so every bit of it
    is kept. The delta is built in ``state.delta``, with ``state.denom``
    as scratch, and then added into ``params`` in place, so a step
    allocates nothing; ``state.delta`` holds it until the next step.
    """
    if grad.shape != state.m.shape:
        raise ValueError(f"gradient shape {grad.shape} does not match state "
                         f"{state.m.shape}")
    state.step_count += 1
    t = state.step_count
    m, v, delta, denom = state.m, state.v, state.delta, state.denom
    m *= BETA1
    np.multiply(grad, 1.0 - BETA1, out=delta)
    m += delta
    np.multiply(grad, 1.0 - BETA2, out=denom)
    denom *= grad
    v *= BETA2
    v += denom
    # denom becomes sqrt(v_hat) + eps, then the delta divides by it
    np.divide(v, 1.0 - BETA2 ** t, out=denom)
    np.sqrt(denom, out=denom)
    denom += EPS
    np.divide(m, 1.0 - BETA1 ** t, out=delta)
    delta *= -lr
    delta /= denom
    params += delta
