"""Fully connected update network and its parameter container.

The network maps a flattened gradient view to a precoder update of the
same length: ReLU hidden layers, linear output. The output layer starts
at exactly zero so an untrained network proposes the zero update and the
first candidate precoder equals the starting point. Training then moves
the proposal away from zero only as far as the objective rewards it.

A network is built on one flat float64 ``theta`` and its layer sizes
(:class:`MetaNetParams`), and its layer weights and biases are views of
that ``theta``, so an optimizer steps ``theta`` in place and the network
moves with it. A gradient with respect to the parameters is a network of
the same sizes built on an array of its own.
"""
from __future__ import annotations

import numpy as np

from .linalg import RngStream

__all__ = ["MetaNetParams", "init_meta_net", "mlp_forward"]


class MetaNetParams:
    """Layer weights (out, in) and biases (out,), input to output order:
    tuples of views of ``theta``, the flat float64 array the network is
    built on, laid out w0, b0, w1, b1, ... with row-major weights, so
    writing ``theta`` moves the network and rebinding a layer raises.
    ``dims`` are the layer sizes, input first. Raises ValueError unless
    ``theta`` is a 1-d float64 array of the length ``dims`` need.
    """

    def __init__(self, theta: np.ndarray, dims):
        self.dims = tuple(int(d) for d in dims)
        layers = tuple(zip(self.dims[:-1], self.dims[1:]))
        size = sum((nin + 1) * nout for nin, nout in layers)
        if not (layers and isinstance(theta, np.ndarray)
                and theta.dtype == np.float64 and theta.shape == (size,)):
            raise ValueError(f"theta must be a 1-d float64 array of the "
                             f"{size} parameters of dims {self.dims}")
        weights, biases, pos = [], [], 0
        for nin, nout in layers:
            weights.append(theta[pos:pos + nout * nin].reshape(nout, nin))
            biases.append(theta[pos + nout * nin:pos + (nin + 1) * nout])
            pos += (nin + 1) * nout
        self.theta = theta
        self.weights, self.biases = tuple(weights), tuple(biases)

    @property
    def n_params(self) -> int:
        return self.theta.size


def init_meta_net(rng: RngStream, dim: int, hidden=(50, 50)) -> MetaNetParams:
    """Build a dim -> hidden... -> dim network.

    Hidden layers use fan-in scaled uniform weights and biases in
    (-1/sqrt(fan_in), 1/sqrt(fan_in)); the output layer is all zeros, so
    the freshly built network is exactly the zero map.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    dims = [int(dim), *[int(h) for h in hidden], int(dim)]
    if any(d < 1 for d in dims):
        raise ValueError(f"all layer sizes must be >= 1, got {dims}")
    params = MetaNetParams(
        np.zeros(sum((nin + 1) * nout for nin, nout in zip(dims, dims[1:]))),
        dims)
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        bound = 1.0 / np.sqrt(w.shape[1])
        w[...] = rng.uniform(-bound, bound, w.shape)
        b[...] = rng.uniform(-bound, bound, b.shape)
    return params


def _activations(params: MetaNetParams, x: np.ndarray) -> list:
    """``[x, a_1, ..., out]``: every layer's input, then the output; the
    network gradient reads them back as layer inputs and ReLU masks."""
    acts = [np.asarray(x, dtype=float)]
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = w @ acts[-1] + b
        acts.append(h if i == last else np.maximum(h, 0.0))
    return acts


def mlp_forward(params: MetaNetParams, x: np.ndarray) -> np.ndarray:
    """Plain forward pass: ReLU on hidden layers, linear output."""
    return _activations(params, x)[-1]
