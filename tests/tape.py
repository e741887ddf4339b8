"""Minimal reverse-mode differentiation over real float64 arrays: the
tests' reference for the package's hand-written gradients.

A :class:`Var` wraps an ndarray value and remembers how it was produced;
calling :func:`backward` on a scalar output walks the recording in reverse
and accumulates exact vector-Jacobian products into every reachable leaf.
The op set is deliberately small: elementwise arithmetic, a few transcendental
maps, affine layers, structural reshapes, reductions with subgradient rules,
and one fused op for squared channel-precoder inner products (the only place
complex numbers appear; they never enter the tape itself).

On top of the ops sit two recordings of the averaged-rate loss, and
:func:`_theta_grad`, the network-parameter gradient recorded on either:

* :func:`_tape_loss` records the layered rates op by op: the independent
  reference for the hand-written precoder and network gradients;
* :func:`_rate_loss` records them as one node whose backward is
  :func:`rsmeta.gradients._rate_backward` on a fresh rate pass.
  :func:`_theta_grad` on it gives, bit for bit, what
  :func:`rsmeta.gradients.grad_wrt_theta` computes by hand.

Conventions
-----------
* Values are float64 ndarrays (0-d counts as scalar). Python scalars are
  promoted to constants.
* Ties in a hard ``min`` route the full subgradient to the lowest index,
  matching ``numpy.argmin``.
* A fresh recording is built for every evaluation; nothing is retained
  between calls, so there is no ``zero_grad`` to forget.
"""
from __future__ import annotations

import numpy as np

from rsmeta.channel import ChannelEnsemble
from rsmeta.gradients import _rate_backward, precoder_to_view
from rsmeta.layout import StreamLayout
from rsmeta.linalg import _project, _user_major
from rsmeta.network import MetaNetParams
from rsmeta.rates import _LN2
from scenes import rate_pass

__all__ = [
    "Var", "constant", "backward", "grad_of",
    "log1p_v", "sqrt_v", "square_v", "relu_v",
    "affine", "csq_project",
    "vsum", "vmean", "min_over",
    "take_last", "index_pairs", "slice_strided", "reshape_v", "transpose2d",
    "_rate_loss", "_tape_loss", "_theta_grad",
]


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to the shape of the operand it belongs to."""
    g = np.asarray(g, dtype=float)
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


class Var:
    """A recorded array value. ``grad`` is filled by :func:`backward`."""

    __slots__ = ("value", "grad", "_parents", "_vjp")

    def __init__(self, value, parents=(), vjp=None):
        self.value = np.asarray(value, dtype=float)
        self.grad = None
        self._parents = tuple(parents)
        self._vjp = vjp

    @property
    def shape(self):
        return self.value.shape

    # -- elementwise arithmetic ---------------------------------------

    def __add__(self, other):
        other = constant(other) if not isinstance(other, Var) else other
        a, b = self, other
        return Var(a.value + b.value, (a, b),
                   lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))

    __radd__ = __add__

    def __sub__(self, other):
        other = constant(other) if not isinstance(other, Var) else other
        a, b = self, other
        return Var(a.value - b.value, (a, b),
                   lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))

    def __rsub__(self, other):
        return constant(other).__sub__(self)

    def __mul__(self, other):
        other = constant(other) if not isinstance(other, Var) else other
        a, b = self, other
        return Var(a.value * b.value, (a, b),
                   lambda g: (_unbroadcast(g * b.value, a.shape),
                              _unbroadcast(g * a.value, b.shape)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = constant(other) if not isinstance(other, Var) else other
        a, b = self, other
        return Var(a.value / b.value, (a, b),
                   lambda g: (_unbroadcast(g / b.value, a.shape),
                              _unbroadcast(-g * a.value / (b.value * b.value),
                                           b.shape)))

    def __rtruediv__(self, other):
        return constant(other).__truediv__(self)

    def __neg__(self):
        a = self
        return Var(-a.value, (a,), lambda g: (-g,))


def constant(value) -> Var:
    """Wrap a value with no parents; gradients stop here."""
    return Var(value)


# -- transcendental and piecewise maps --------------------------------

def log1p_v(x: Var) -> Var:
    return Var(np.log1p(x.value), (x,), lambda g: (g / (1.0 + x.value),))


def sqrt_v(x: Var) -> Var:
    out = np.sqrt(x.value)
    return Var(out, (x,), lambda g: (g / (2.0 * out),))


def square_v(x: Var) -> Var:
    return Var(x.value * x.value, (x,), lambda g: (2.0 * g * x.value,))


def relu_v(x: Var) -> Var:
    mask = x.value > 0
    return Var(np.where(mask, x.value, 0.0), (x,), lambda g: (g * mask,))


# -- dense layers and the complex power bridge ------------------------

def affine(w: Var, x: Var, b: Var) -> Var:
    """w @ x + b for a 2-d weight, 1-d input, 1-d bias."""
    out = w.value @ x.value + b.value
    return Var(out, (w, x, b),
               lambda g: (np.outer(g, x.value), w.value.T @ g, np.asarray(g)))


def csq_project(pre: Var, pim: Var, h: np.ndarray) -> Var:
    """Squared magnitudes of channel-precoder inner products.

    ``h`` is a constant complex (n_draws, n_tx, n_users) stack; ``pre`` and
    ``pim`` carry the real and imaginary parts of the (n_tx, n_streams)
    precoder. Returns |h_k^(m)H p_s|^2 shaped (n_draws, n_users, n_streams).
    The complex arithmetic is fused here so the tape stays real. The
    forward pass is the package's one projection,
    :func:`rsmeta.linalg._project`, of the columns' (Re, Im) rows on a
    throwaway workspace.
    """
    ws = _project(h, np.stack((pre.value.T, pim.value.T), axis=-1))
    z = ws.z

    def vjp(g):
        # the einsum's summation order follows its operands' memory, so
        # they are laid out user-major as the package lays them out
        w = _user_major(z * (2.0 * g).T)
        v = np.einsum("mik,mks->is", ws.hu, w)
        return v.real, v.imag

    # the projection's stream-major powers, read as (m, k, s)
    return Var(ws.powers.T, (pre, pim), vjp)


# -- reductions -------------------------------------------------------

def vsum(x: Var, axis=None) -> Var:
    out = np.sum(x.value, axis=axis)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, x.shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), x.shape).copy(),)

    return Var(out, (x,), vjp)


def vmean(x: Var, axis=None) -> Var:
    n = x.value.size if axis is None else x.value.shape[axis]
    out = np.mean(x.value, axis=axis)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g / n, x.shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g / n, axis), x.shape).copy(),)

    return Var(out, (x,), vjp)


def min_over(x: Var, axis: int = 0) -> Var:
    """Hard minimum along one axis; ties feed the lowest index."""
    idx = np.argmin(x.value, axis=axis)
    out = np.min(x.value, axis=axis)

    def vjp(g):
        gx = np.zeros_like(x.value)
        grid = np.indices(out.shape) if out.shape else None
        if grid is None:
            gx[(idx,) if x.value.ndim == 1 else np.unravel_index(
                np.argmin(x.value), x.shape)] = g
        else:
            sel = list(grid)
            sel.insert(axis, idx)
            gx[tuple(sel)] = g
        return (gx,)

    return Var(out, (x,), vjp)


# -- structural ops ---------------------------------------------------

def take_last(x: Var, indices) -> Var:
    """Gather along the last axis; duplicate indices accumulate on backward."""
    idx = np.asarray(indices, dtype=int)
    out = x.value[..., idx]

    def vjp(g):
        gx = np.zeros_like(x.value)
        np.add.at(gx, (..., idx), g)
        return (gx,)

    return Var(out, (x,), vjp)


def index_pairs(x: Var, rows, cols) -> Var:
    """x[..., rows, cols] for paired index arrays on the last two axes."""
    r = np.asarray(rows, dtype=int)
    c = np.asarray(cols, dtype=int)
    out = x.value[..., r, c]

    def vjp(g):
        gx = np.zeros_like(x.value)
        np.add.at(gx, (..., r, c), g)
        return (gx,)

    return Var(out, (x,), vjp)


def slice_strided(x: Var, start: int, step: int) -> Var:
    """1-d strided slice x[start::step]."""
    out = x.value[start::step]

    def vjp(g):
        gx = np.zeros_like(x.value)
        gx[start::step] = g
        return (gx,)

    return Var(out, (x,), vjp)


def reshape_v(x: Var, shape) -> Var:
    shape = tuple(shape)
    return Var(x.value.reshape(shape), (x,),
               lambda g: (np.asarray(g).reshape(x.shape),))


def transpose2d(x: Var) -> Var:
    return Var(x.value.T.copy(), (x,), lambda g: (np.asarray(g).T.copy(),))


# -- reverse pass -----------------------------------------------------

def _topo_order(out: Var):
    order, seen, stack = [], set(), [(out, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))
    return order  # parents before children


def backward(out: Var) -> None:
    """Accumulate d(out)/d(leaf) into ``grad`` for every node in the tape."""
    if out.value.size != 1:
        raise ValueError(f"backward needs a scalar output, got shape {out.shape}")
    order = _topo_order(out)
    for node in order:
        node.grad = None
    out.grad = np.ones_like(out.value)
    for node in reversed(order):
        if node.grad is None or node._vjp is None:
            continue
        parent_grads = node._vjp(node.grad)
        for parent, pg in zip(node._parents, parent_grads):
            pg = np.asarray(pg, dtype=float)
            if parent.grad is None:
                # stored, not copied: no vjp mutates its input and the
                # accumulation below is out of place
                parent.grad = pg
            else:
                parent.grad = parent.grad + pg


def grad_of(out: Var, wrt) -> list:
    """Run backward and return gradients for the requested leaves."""
    backward(out)
    outs = []
    for v in wrt:
        outs.append(np.zeros_like(v.value) if v.grad is None else v.grad)
    return outs


# -- the averaged-rate loss and the network-parameter gradient --------

def _rate_loss(pre: Var, pim: Var, ens: ChannelEnsemble,
               layout: StreamLayout) -> Var:
    """The loss as one recorded node on top of the projection, with the
    closed-form backward of :func:`rsmeta.gradients._rate_backward`, on
    a fresh rate pass over a copy of the powers."""
    powers = csq_project(pre, pim, ens.realizations)
    # the rate backward reads and returns them stream-major
    asr, g_pow = _rate_backward(
        rate_pass(powers.value.T, layout, backward=True), 1.0)
    return Var(-asr, (powers,), lambda g: (-g * g_pow.T,))


def _tape_loss(pre: Var, pim: Var, ens: ChannelEnsemble,
               layout: StreamLayout) -> Var:
    """The loss recorded op by op: the tests' reference for the closed
    form. Same signature and, bit for bit, the same value as
    :func:`_rate_loss`."""
    k = layout.n_users
    g = layout.n_groups
    hier = g > 0
    powers = csq_project(pre, pim, ens.realizations)
    rows = np.arange(k)
    prv_cols = np.arange(1 + g, 1 + g + k)
    # every denominator is a sum: the interference is read off the powers
    # with each user's own group and private columns masked to zero
    mask = np.ones((k, layout.n_streams))
    mask[rows, prv_cols] = 0.0
    if hier:
        mask[rows, 1 + np.asarray(layout.group_of)] = 0.0
    others = powers * constant(mask)
    t_com = vsum(take_last(powers, np.arange(0, 1)), axis=2)
    t_prv = vsum(take_last(powers, prv_cols), axis=2)
    o_prv = vsum(take_last(others, prv_cols), axis=2)
    if hier:
        grp_cols = np.arange(1, 1 + g)
        t_grp = vsum(take_last(powers, grp_cols), axis=2)
        o_grp = vsum(take_last(others, grp_cols), axis=2)
        den_c = t_grp + t_prv + 1.0
        own_g = index_pairs(powers, rows, 1 + np.asarray(layout.group_of))
        den_g = o_grp + t_prv + 1.0
        den_p = o_grp + o_prv + 1.0
    else:
        den_c = t_prv + 1.0
        den_p = o_prv + 1.0
    own_p = index_pairs(powers, rows, prv_cols)
    # the rates are averaged per user over a contiguous draw axis, on the
    # (n_users, n_draws) transpose of each SINR
    sinr_c = transpose2d(t_com / den_c)
    rc = vmean(log1p_v(sinr_c) * (1.0 / _LN2), axis=1)
    if hier:
        sinr_g = transpose2d(own_g / den_g)
        rg = vmean(log1p_v(sinr_g) * (1.0 / _LN2), axis=1)
    else:
        rg = None
    sinr_p = transpose2d(own_p / den_p)
    rp = vmean(log1p_v(sinr_p) * (1.0 / _LN2), axis=1)
    asr = min_over(rc, 0) + vsum(rp)
    if rg is not None:
        for gi in range(layout.n_groups):
            asr = asr + min_over(
                take_last(rg, np.asarray(layout.group_members(gi))), 0)
    return -asr


def _tape_forward_net(w_vars, b_vars, x: Var) -> Var:
    h = x
    last = len(w_vars) - 1
    for i, (w, b) in enumerate(zip(w_vars, b_vars)):
        h = affine(w, h, b)
        if i != last:
            h = relu_v(h)
    return h


def _theta_grad(loss_fn, params: MetaNetParams, p0, g0_view: np.ndarray,
                ens: ChannelEnsemble, layout: StreamLayout, p_t: float):
    """:func:`rsmeta.gradients.grad_wrt_theta` recorded on the tape, with
    the loss recorded by ``loss_fn``, which maps the candidate's recorded
    real and imaginary parts to the loss: :func:`_rate_loss` or
    :func:`_tape_loss`. The recording and its :func:`backward` both run
    here."""
    p0_view = p0 if np.asarray(p0).ndim == 1 else precoder_to_view(p0, layout)
    w_vars = [Var(w) for w in params.weights]
    b_vars = [Var(b) for b in params.biases]
    delta = _tape_forward_net(w_vars, b_vars, constant(np.asarray(g0_view, float)))
    v = constant(np.asarray(p0_view, dtype=float)) + delta
    tr = vsum(square_v(v))
    if float(tr.value) > p_t:
        v = v * sqrt_v(constant(float(p_t)) / tr)
    n_tx, n_s = layout.n_tx, layout.n_streams
    pre = transpose2d(reshape_v(slice_strided(v, 0, 2), (n_s, n_tx)))
    pim = transpose2d(reshape_v(slice_strided(v, 1, 2), (n_s, n_tx)))
    loss = loss_fn(pre, pim, ens, layout)
    backward(loss)
    parts = []
    for w, b in zip(w_vars, b_vars):
        parts.append((w.grad if w.grad is not None else
                      np.zeros_like(w.value)).ravel())
        parts.append(b.grad if b.grad is not None else np.zeros_like(b.value))
    return float(loss.value), np.concatenate(parts), v.value.copy()
