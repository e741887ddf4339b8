"""The layered-rate core and the two hand-written objective gradients.

* :func:`grad_wrt_precoder`: the averaged-rate loss's gradient with
  respect to the precoder view, the rate backward then one matrix product
  back to the precoder.
* :func:`grad_wrt_theta`: the same loss's gradient at the network's
  power-projected candidate with respect to the network's flat ``theta``:
  the same rate backward, the adjoint of the |h^H p|^2 projection, the
  radial projection ``v * sqrt(P / tr)``, then the ReLU MLP, written into
  one fresh array through the layer views that lay out ``theta``
  (:class:`rsmeta.network.MetaNetParams`).

Every path, the plain loss included, gets |h^H p|^2 from the one
projection :func:`rsmeta.linalg.channel_project` and runs the one
layered-rate arithmetic, so equal precoders give bit-equal losses.
:func:`_layer_terms` stacks every layer's SINR and its denominator into
one (..., n_layers, n_users, n_draws) array each, the layers in decoding
order (common, group when hierarchical, private), so the forward rates
take one ``log1p`` and one average over the realizations, and
:func:`_asr_and_power_grad` one vjp, for all layers. The powers and their
gradient are stream-major and draw-minor, (n_streams, n_users, n_draws)
in memory; the forward rate code also takes leading batch axes, and the
backward pass is unbatched. With an optional
:class:`rsmeta.linalg.ProjectionWorkspace` built for the ensemble, the
gradients, :func:`loss_from_view` and :func:`asr_from_powers` fill the
projection, the layer arrays and the power gradient in place,
bit-identically, and return nothing that points into it; both optimizers
pass their run's workspace on every iteration.

The view is the memory of the complex (n_tx, n_active) matrix of the
active columns, column by column, read as float64 pairs: going between
the two is no arithmetic, and both gradients take either. Its squared norm
is the precoder power, so the power projection is one rescale of the
view; every path runs the same rescale and network forward, so a
candidate has the same bits on each.

The tests check both gradients against a reverse-mode tape, and
:func:`grad_wrt_theta` bit for bit against the tape with the rates
recorded as one node; :mod:`rsmeta.gradcheck` checks both against central
differences of :func:`loss_from_view`.
"""
from __future__ import annotations

import numpy as np

from .channel import ChannelEnsemble
from .layout import StreamLayout
from .linalg import ProjectionWorkspace, channel_project
from .network import MetaNetParams, _activations, _layer_views, mlp_forward
from .rates import _LN2

__all__ = ["view_length", "precoder_to_view", "view_to_precoder",
           "loss_from_view", "candidate_view", "project_view",
           "rates_from_powers", "asr_from_powers",
           "grad_wrt_precoder", "grad_wrt_theta"]

# ---------------------------------------------------------------------------
# real view of the active precoder columns
# ---------------------------------------------------------------------------

def view_length(layout: StreamLayout) -> int:
    """Real degrees of freedom: 2 per complex entry of each active column."""
    return 2 * layout.n_tx * len(layout.active_streams)


def _columns(v, layout: StreamLayout) -> np.ndarray:
    """The complex (n_tx, n_active) active-column matrix whose memory the
    view ``v`` is (shared with a contiguous float64 ``v``); a view of
    another length raises ValueError."""
    flat = np.ascontiguousarray(v, dtype=float).view(complex)
    return flat.reshape(len(layout.active_streams), layout.n_tx).T


def _view(cols: np.ndarray) -> np.ndarray:
    """The view of a complex (n_tx, n_active) active-column matrix: its
    column-major memory read as float64 pairs, shared with a column-major
    ``cols``."""
    return np.ascontiguousarray(cols.T).view(float).ravel()


def _view_in(p, layout: StreamLayout) -> np.ndarray:
    """A view (any 1-d array) as it is, a precoder as its view."""
    return p if np.ndim(p) == 1 else precoder_to_view(p, layout)


def precoder_to_view(p, layout: StreamLayout) -> np.ndarray:
    """The view of a precoder or of its (n_tx, n_streams) matrix."""
    mat = np.asarray(getattr(p, "matrix", p), dtype=complex)
    return _view(mat[:, layout.active_cols])


def view_to_precoder(v: np.ndarray, layout: StreamLayout) -> np.ndarray:
    """Inverse of :func:`precoder_to_view`; inactive columns come back zero."""
    full = np.zeros((layout.n_tx, layout.n_streams), dtype=complex)
    full[:, layout.active_cols] = _columns(v, layout)
    return full


def _radial(v: np.ndarray, p_t: float):
    """The view scaled back onto the power ball if it exceeds the budget:
    ``(cand, tr, scale)`` with ``tr = sum(v * v)`` and ``cand = v * scale``,
    ``scale`` None (and ``cand`` the very ``v``) inside the ball."""
    tr = np.add.reduce(v * v)
    if tr > p_t:
        scale = np.sqrt(p_t / tr)
        return v * scale, tr, scale
    return v, tr, None


def project_view(v: np.ndarray, p_t: float) -> np.ndarray:
    """Scale the view back onto the power ball if it exceeds the budget."""
    return _radial(v, p_t)[0]


# ---------------------------------------------------------------------------
# plain evaluation path and the closed-form precoder gradient
# ---------------------------------------------------------------------------

def _array(workspace: ProjectionWorkspace, key: str,
           shape: tuple) -> np.ndarray:
    """The workspace's array ``key``, or a fresh one without a workspace."""
    return np.empty(shape) if workspace is None else \
        workspace.array(key, shape)


def _layer_terms(powers: np.ndarray, layout: StreamLayout, noise: float,
                 workspace: ProjectionWorkspace = None):
    """Every layer's SINR and its denominator, ``(sinr, den)``, each
    stacked (..., n_layers, n_users, n_draws), from the |h^H p|^2 of the
    active columns shaped (..., n_draws, n_users, n_active).

    The powers are read stream-major, as the last three axes reversed: no
    copy for :func:`rsmeta.linalg.channel_project`'s, a contiguous one of
    any other array, with the same bits. The numerators, each user's own
    power per layer, are one gather (:attr:`StreamLayout.layer_rows`). The
    common denominator adds the group rows, then the private rows, in
    column order; each later layer's is the one before less its own power.
    """
    pw = np.ascontiguousarray(np.swapaxes(powers, -1, -3))
    *batch, n_act, k, m = pw.shape
    rows = layout.layer_rows
    shape = (*batch, *rows.shape, m)
    # mode="clip" (the rows are in range) writes straight into ``out``;
    # the default mode would fill a buffer and copy it
    sinr = np.take(pw.reshape(*batch, n_act * k, m), rows, axis=-2,
                   out=_array(workspace, "sinr", shape), mode="clip")
    den = _array(workspace, "den", shape)
    den_c = den[..., 0, :, :]
    if layout.mode == "hierarchical":
        # the private rows' sum passes through the private slot
        first_prv = n_act - k
        np.add.reduce(pw[..., 1:first_prv, :, :], axis=-3, out=den_c)
        den_c += np.add.reduce(pw[..., first_prv:, :, :], axis=-3,
                               out=den[..., 2, :, :])
    else:
        np.add.reduce(pw[..., 1:, :, :], axis=-3, out=den_c)
    den_c += noise
    for i in range(1, len(rows)):
        np.subtract(den[..., i - 1, :, :], sinr[..., i, :, :],
                    out=den[..., i, :, :])
    sinr /= den
    return sinr, den


def _avg_rates(sinr: np.ndarray,
               workspace: ProjectionWorkspace = None) -> np.ndarray:
    """Per-user rates log2(1 + sinr) averaged over the realizations,
    (..., n_layers, n_users), from the stacked SINRs."""
    r = np.log1p(sinr, out=_array(workspace, "log_rate", sinr.shape))
    r *= 1.0 / _LN2
    avg = np.add.reduce(r, axis=-1,
                        out=_array(workspace, "rates", sinr.shape[:-1]))
    avg /= sinr.shape[-1]
    return avg


def _min_and_weights(x: np.ndarray, smooth_temp: float = None):
    """Hard or smooth minimum of ``x`` and its gradient weights: the hard
    minimum's subgradient is a one-hot on the lowest minimizing index; the
    smooth minimum -T log sum exp(-x / T) has its softmax weights."""
    if smooth_temp is not None:
        if not smooth_temp > 0:
            raise ValueError(f"smooth_temp must be None or positive, "
                             f"got {smooth_temp}")
        m0 = np.minimum.reduce(x)
        e = np.exp(-(x - m0) / smooth_temp)
        s = np.add.reduce(e)
        return m0 - smooth_temp * np.log(s), e / s
    i = x.argmin()
    w = np.zeros(x.shape)
    w[i] = 1.0
    return x[i], w


def _sum_rate(rates: np.ndarray, layout: StreamLayout,
              smooth_temp: float = None,
              workspace: ProjectionWorkspace = None):
    """Averaged sum rate from the stacked averaged per-user rates, and its
    gradient weights stacked the same way, (n_layers, n_users): the
    minima's on the common and group rows, one on every private rate."""
    w = _array(workspace, "rate_grad", rates.shape)
    asr, w[0] = _min_and_weights(rates[0], smooth_temp)
    asr = asr + np.add.reduce(rates[-1])
    w[-1] = 1.0
    if layout.mode == "hierarchical":
        for members in layout.member_rows:
            val, w[1, members] = _min_and_weights(rates[1, members],
                                                  smooth_temp)
            asr = asr + val
    return float(asr), w


def rates_from_powers(powers: np.ndarray, layout: StreamLayout,
                      noise: float):
    """Averaged per-user rates (common, group or None, private) from the
    |h^H p|^2 of the active columns, shaped (..., n_draws, n_users,
    n_active) in any memory order; leading axes are a batch."""
    r = _avg_rates(_layer_terms(powers, layout, noise)[0])
    grp = r[..., 1, :] if layout.mode == "hierarchical" else None
    return r[..., 0, :], grp, r[..., -1, :]


def _batch_asr(powers: np.ndarray, layout: StreamLayout,
               noise: float) -> np.ndarray:
    """Averaged sum rates with hard minima, shaped ``powers.shape[:-3]``,
    from a batch of |h^H p|^2 shaped (..., n_draws, n_users, n_active):
    each :func:`asr_from_powers` of its slice, bit for bit, without
    :func:`_sum_rate`'s gradient weights."""
    r = _avg_rates(_layer_terms(powers, layout, noise)[0])
    asr = np.minimum.reduce(r[..., 0, :], axis=-1) \
        + np.add.reduce(r[..., -1, :], axis=-1)
    if layout.mode == "hierarchical":
        for members in layout.member_rows:
            asr = asr + np.minimum.reduce(r[..., 1, members], axis=-1)
    return asr


def asr_from_powers(powers: np.ndarray, layout: StreamLayout, noise: float,
                    smooth_temp: float = None,
                    workspace: ProjectionWorkspace = None) -> float:
    """Averaged sum rate from the |h^H p|^2 of the active columns; a
    ``workspace`` built for their channel stack holds the rate arrays."""
    sinr, _ = _layer_terms(powers, layout, noise, workspace)
    return _sum_rate(_avg_rates(sinr, workspace), layout, smooth_temp,
                     workspace)[0]


def loss_from_view(v: np.ndarray, ens: ChannelEnsemble, layout: StreamLayout,
                   smooth_temp: float = None,
                   workspace: ProjectionWorkspace = None) -> float:
    """Negative averaged sum rate of the precoder encoded by the view.

    ``workspace``, built for ``ens.realizations``, supplies the arrays of
    the projection and the rates; without one they are fresh.
    """
    powers, _, _ = channel_project(ens.realizations, _columns(v, layout),
                                   workspace)
    return -asr_from_powers(powers, layout, ens.noise_power, smooth_temp,
                            workspace)


def _asr_and_power_grad(powers: np.ndarray, layout: StreamLayout,
                        noise: float, smooth_temp: float = None,
                        workspace: ProjectionWorkspace = None):
    """Averaged sum rate from the |h^H p|^2 of the active columns, and its
    gradient with respect to those powers: ``(asr, d asr / d powers)``.

    One vjp takes every layer's ``mean(log2(1 + num / den))`` back to its
    stacked numerators and denominators. The gradient is shaped like
    ``powers``, a view of a stream-major array: the workspace's
    ``power_grad`` when there is a workspace.
    """
    sinr, den = _layer_terms(powers, layout, noise, workspace)
    asr, g_rate = _sum_rate(_avg_rates(sinr, workspace), layout,
                            smooth_temp, workspace)
    g_rate /= sinr.shape[-1]
    g_rate *= 1.0 / _LN2
    g_num = np.add(1.0, sinr, out=_array(workspace, "log_rate", sinr.shape))
    np.divide(g_rate[..., None], g_num, out=g_num)
    g_num /= den
    g_den = np.negative(g_num, out=den)
    g_den *= sinr

    # every column but the common one sits in the common denominator, and
    # each later layer's denominator is the one before less the user's own
    # power: those rows get the summed denominator gradient, and each
    # user's own group and private powers their layer's numerator term
    # less that layer's summed denominator term on top
    if layout.mode == "hierarchical":
        g_den[1] += g_den[2]
    g_pw = _array(workspace, "power_grad", powers.shape[::-1])
    g_pw[0] = g_num[0]
    np.add(g_den[0], g_den[1], out=g_pw[1])
    g_pw[2:] = g_pw[1]
    g_num[1:] -= g_den[1:]
    g_pw.reshape(-1, g_pw.shape[-1])[layout.layer_rows[1:]] += g_num[1:]
    return asr, g_pw.T


def grad_wrt_precoder(p, ens: ChannelEnsemble, layout: StreamLayout,
                      smooth_temp: float = None,
                      workspace: ProjectionWorkspace = None):
    """Loss and its gradient with respect to the precoder view.

    ``p`` is a view or a precoder. Returns ``(loss, grad)`` with ``grad`` in
    view coordinates, so it can be fed straight into the update network or
    a first-order step. Closed form: :func:`_asr_and_power_grad`, then one
    matrix product maps d(loss)/d(powers) back to the precoder. ``grad``
    is fresh, with or without a ``workspace`` built for ``ens.realizations``.
    """
    powers, z, hc = channel_project(
        ens.realizations, _columns(_view_in(p, layout), layout), workspace)
    asr, g_pow = _asr_and_power_grad(powers, layout, ens.noise_power,
                                     smooth_temp, workspace)

    # d|z|^2 = 2 Re(conj(z) dz) with z = hc @ p; the loss is -asr. z and
    # g_pow are overwritten in place: fresh arrays of this size cost more
    # in page faults than the arithmetic on them
    m, k, s = z.shape
    g_pow *= -2.0
    w = np.conjugate(z, out=z)
    w *= g_pow
    # w^T hc rather than hc^T w: numpy runs this orientation about twice
    # as fast for tall hc, and its rows are the gradient's columns
    g_t = w.reshape(m * k, s).T @ hc
    return -asr, _view(np.conjugate(g_t, out=g_t).T)


def candidate_view(params: MetaNetParams, p0_view: np.ndarray,
                   g0_view: np.ndarray, p_t: float) -> np.ndarray:
    """Network proposal applied to the start point, then power-projected."""
    delta = mlp_forward(params, g0_view)
    return project_view(np.asarray(p0_view, dtype=float) + delta, p_t)


def grad_wrt_theta(params: MetaNetParams, p0, g0_view: np.ndarray,
                   ens: ChannelEnsemble, layout: StreamLayout, p_t: float,
                   smooth_temp: float = None,
                   workspace: ProjectionWorkspace = None):
    """Differentiate the full pipeline with respect to network parameters.

    Pipeline: frozen gradient view in, network proposal out, add to the
    start point ``p0`` (a view or a precoder), project onto the power
    ball, evaluate the loss. The start point and the input gradient are
    constants here; only the network parameters carry gradient. The
    candidate is :func:`candidate_view`'s. The backward pass is by hand:
    :func:`_asr_and_power_grad` at the candidate, the adjoint of the
    |h^H p|^2 projection, the radial power projection, then the MLP.

    Returns ``(loss, grad_theta, cand_view)`` where ``loss`` is the loss at
    the projected candidate, ``grad_theta`` is laid out as ``params.theta``,
    and ``cand_view`` is the candidate in view coordinates; all
    fresh, with or without a ``workspace`` built for ``ens.realizations``.
    """
    acts = _activations(params, g0_view)
    raw = np.asarray(_view_in(p0, layout), dtype=float) + acts[-1]
    cand, tr, scale = _radial(raw, p_t)

    powers, z, _ = channel_project(ens.realizations, _columns(cand, layout),
                                   workspace)
    asr, g_pow = _asr_and_power_grad(powers, layout, ens.noise_power,
                                     smooth_temp, workspace)
    # the loss is -asr; d|z|^2 = 2 Re(conj(z) dz) with z = h^H p. The
    # adjoint is an einsum over h, not grad_wrt_precoder's product with
    # hc: the two differ in their last bits
    g_pow *= -2.0
    z *= g_pow
    g = _view(np.einsum("mik,mks->is", ens.realizations, z))

    if scale is not None:
        # cand = raw * sqrt(p_t / tr) with tr = raw . raw
        g_tr = (-(np.add.reduce(g * raw) / (2.0 * scale)) * p_t) \
            / (tr * tr)
        g = g * scale + (2.0 * g_tr) * raw

    # layer i maps acts[i] to acts[i + 1], a hidden layer's ReLU passes
    # gradient where it is positive, and dL/dθ fills a fresh θ's layers
    grad = np.empty(params.n_params)
    g_w, g_b = _layer_views(grad, params.dims)
    for i in range(len(g_w) - 1, -1, -1):
        np.multiply.outer(g, acts[i], out=g_w[i])
        g_b[i][...] = g
        if i:
            g = (params.weights[i].T @ g) * (acts[i] > 0)
    return -asr, grad, cand
