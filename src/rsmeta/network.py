"""Fully connected update network and its parameter container.

The network maps a flattened gradient view to a precoder update of the
same length: ReLU hidden layers, linear output. The output layer starts
at exactly zero so an untrained network proposes the zero update and the
first candidate precoder equals the starting point. Training then moves
the proposal away from zero only as far as the objective rewards it.

The parameters are one flat float64 ``theta``, and the layer weights and
biases are views of it (:class:`MetaNetParams`), so an optimizer steps
``theta`` in place and the network moves with it.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .linalg import RngStream

__all__ = ["MetaNetParams", "init_meta_net", "mlp_forward",
           "save_checkpoint", "load_checkpoint"]

_NET_FORMAT = "rsmeta-net-v1"


def _layer_views(theta: np.ndarray, dims: tuple):
    """The parameter layout: ``(weights, biases)``, tuples of views of the
    flat ``theta`` as w0, b0, w1, b1, ... with row-major weights; raises
    ValueError if ``theta`` has another length."""
    weights, biases, pos = [], [], 0
    for nin, nout in zip(dims[:-1], dims[1:]):
        weights.append(theta[pos:pos + nout * nin].reshape(nout, nin))
        biases.append(theta[pos + nout * nin:pos + (nin + 1) * nout])
        pos += (nin + 1) * nout
    if pos != theta.size or not weights:
        raise ValueError(f"vector length {theta.size} does not match dims {dims}")
    return tuple(weights), tuple(biases)


@dataclass
class MetaNetParams:
    """Layer weights (out, in) and biases (out,), input to output order:
    tuples of views of one flat float64 ``theta`` (:func:`_layer_views`),
    so writing ``theta`` moves the network and rebinding a layer raises.
    The constructor copies the layers it is given into a fresh ``theta``.
    """

    weights: tuple
    biases: tuple

    def __post_init__(self):
        if len(self.weights) != len(self.biases):
            raise ValueError("weights and biases must pair up layer by layer")
        if not self.weights:
            raise ValueError("network needs at least one layer")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ValueError(f"layer {i} has inconsistent shapes "
                                 f"{w.shape} / {b.shape}")
            if i > 0 and w.shape[1] != self.weights[i - 1].shape[0]:
                raise ValueError(f"layer {i} input dim does not chain")
        layers = (*self.weights, *self.biases)
        self.theta = np.empty(sum(a.size for a in layers))
        self.weights, self.biases = _layer_views(self.theta, self.dims)
        for view, layer in zip((*self.weights, *self.biases), layers):
            view[...] = layer

    @property
    def dims(self) -> tuple:
        """Layer sizes, input first."""
        return (self.weights[0].shape[1],
                *[w.shape[0] for w in self.weights])

    @property
    def n_params(self) -> int:
        return self.theta.size

    def to_vector(self) -> np.ndarray:
        """A copy of ``theta``."""
        return self.theta.copy()

    @classmethod
    def from_vector(cls, vec: np.ndarray, dims) -> "MetaNetParams":
        """The network whose ``theta`` is a copy of ``vec``."""
        params = cls.__new__(cls)
        params.theta = np.array(vec, dtype=float)
        params.weights, params.biases = _layer_views(
            params.theta, tuple(int(d) for d in dims))
        return params


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
        weights=[np.zeros((nout, nin)) for nin, nout in zip(dims, dims[1:])],
        biases=[np.zeros(nout) for nout in dims[1:]])
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


def save_checkpoint(path, params: MetaNetParams, meta: dict = None) -> None:
    """Write network parameters (and optional run metadata) to .npz."""
    arrays = {"format": _NET_FORMAT,
              "n_layers": np.int64(len(params.weights)),
              "meta": json.dumps(meta or {})}
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        arrays[f"w{i}"] = w
        arrays[f"b{i}"] = b
    np.savez_compressed(path, **arrays)


def load_checkpoint(path):
    """Read back a checkpoint; returns (params, meta)."""
    with np.load(path) as data:
        fmt = str(data["format"]) if "format" in data.files else None
        if fmt != _NET_FORMAT:
            raise ValueError(f"unrecognized checkpoint format {fmt!r}")
        n = int(data["n_layers"])
        weights = [data[f"w{i}"] for i in range(n)]
        biases = [data[f"b{i}"] for i in range(n)]
        meta = json.loads(str(data["meta"]))
    return MetaNetParams(weights=weights, biases=biases), meta
