"""The layered-rate core and the two hand-written objective gradients.

Both gradients run one loss core, :func:`_loss_core`: the |h^H p|^2
projection :func:`rsmeta.linalg.channel_project`, the rate backward
:func:`_asr_and_power_grad`, and the projection's inner products, (Re, Im)
pairs stream-major and draw-minor, scaled in place by the power gradient.
They differ only in the adjoint that takes those pairs to the view:

* :func:`grad_wrt_precoder`: one real matrix product with the
  projection's channel copy, :func:`rsmeta.linalg._project_back`.
* :func:`grad_wrt_theta`, at the network's power-projected candidate: an
  ``einsum`` over the projection's complex user-major channel copy,
  :attr:`rsmeta.linalg.ProjectionWorkspace.hu`, then the radial projection
  ``v * sqrt(P / tr)`` and the ReLU MLP, written into one fresh ``theta``
  through its layer views (:class:`rsmeta.network.MetaNetParams`).

Every path, the plain loss included, gets |h^H p|^2 from that projection
and runs one layered-rate arithmetic, so equal precoders give bit-equal
losses. The objective is the paper's averaged sum rate, whose common and
group rates are hard minima; their gradient is the lowest minimizing
user's one-hot (:func:`_rate_weights`). :func:`_layer_terms` gathers
every layer's numerators and builds every layer's denominator, each
stacked with the layers in decoding order (common, group when
hierarchical, private). Every denominator is a sum, and none is a
difference: the common one adds up whole rows, and the later ones add up
each user's interference, which one helper, :func:`_own_and_others`,
tells from its own powers by zeroing them. Every reader then passes
these complete terms to one tail: the division, one ``log1p`` and one
average over the realizations for all layers (:func:`_avg_rates`), and the
minima and sums (:func:`_asr_of_rates`), which give the training loss and
the plain loss the same bits; :func:`_asr_and_power_grad` takes the whole
stack back in one vjp. The forward rates also take leading batch axes, the
backward none. The fixed-direction search splits its gains with the same
helper and builds the complete terms of each chunk of power splits as one
stacked product with six gain rows
(:func:`rsmeta.baselines.run_fixed_direction`), then enters the tail
through :func:`asr_from_terms`, and :mod:`rsmeta.gradcheck`'s tie guard
reads the tail's stacked averaged rates. With a
:class:`rsmeta.linalg.ProjectionWorkspace` built for the ensemble, the
gradients fill their arrays in place, bit-identically, and return nothing
that points into it; both optimizers pass their run's workspace on every
iteration.

The view is the memory of the complex (n_tx, n_active) matrix of the
active columns, read as float64 pairs, so going between the two is no
arithmetic and both gradients take either. Its squared norm is the
precoder power, so the power projection is one rescale of the view, the
same on every path.

The tests check both gradients against a reverse-mode tape, and
:func:`grad_wrt_theta` bit for bit against the tape with the rates
recorded as one node; :mod:`rsmeta.gradcheck` checks both against central
differences of :func:`loss_from_view`.
"""
from __future__ import annotations

import numpy as np

from .channel import ChannelEnsemble
from .layout import StreamLayout
from .linalg import ProjectionWorkspace, _project_back, _user_major, \
    channel_project
from .network import MetaNetParams, _activations, _layer_views, mlp_forward
from .rates import _LN2

__all__ = ["view_length", "precoder_to_view", "view_to_precoder",
           "loss_from_view", "candidate_view", "project_view",
           "asr_from_powers", "asr_from_terms",
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


def _own_and_others(pw: np.ndarray, layout: StreamLayout, own: np.ndarray,
                    others: np.ndarray) -> None:
    """Split C-ordered stream-major powers ``pw``, (..., n_active, n_users,
    n_draws), into each user's own power per layer and its interference.

    ``own``, (..., n_layers, n_users, n_draws), gets the own powers, one
    gather (:attr:`StreamLayout.layer_rows`). Those rows of ``pw`` are then
    set to zero, so that ``others``, (..., n_layers - 1, n_users,
    n_draws), gets sums with nothing to subtract: in hierarchical mode the
    other groups' powers at each user, then the other users' private
    powers. ``pw`` is overwritten. This is the one place that tells a
    user's own powers from its interference, for the training loss and the
    fixed-direction search alike.
    """
    *batch, n_act, k, m = pw.shape
    first_prv = n_act - k
    rows = pw.reshape(*batch, n_act * k, m)
    # mode="clip" (the rows are in range) writes straight into ``own``;
    # the default mode would fill a buffer and copy it
    np.take(rows, layout.layer_rows, axis=-2, out=own, mode="clip")
    # user u's own private row, first_prv * k + u * (k + 1), is a stride
    rows[..., first_prv * k::k + 1, :] = 0.0
    if layout.mode == "hierarchical":
        rows[..., layout.layer_rows[1], :] = 0.0
        np.add.reduce(pw[..., 1:first_prv, :, :], axis=-3,
                      out=others[..., 0, :, :])
    np.add.reduce(pw[..., first_prv:, :, :], axis=-3,
                  out=others[..., -1, :, :])


def _layer_terms(powers: np.ndarray, layout: StreamLayout, noise: float,
                 workspace: ProjectionWorkspace = None):
    """Every layer's numerators and denominators, ``(num, den)``, each
    stacked (..., n_layers, n_users, n_draws), from the |h^H p|^2 of the
    active columns, stream-major, (..., n_active, n_users, n_draws).

    The common denominator adds the group rows, then the private rows, in
    column order, plus the noise. :func:`_own_and_others` then gathers the
    numerators and writes the interference sums into ``den``'s later
    slots, and every later denominator is a sum too, so nothing is
    subtracted: the group one is the other groups' powers plus every
    private power plus the noise, the private one the other groups' plus
    the other users' private powers plus the noise. Two users of one group
    whose channels are equal thus get the same common and group
    denominators, bit for bit, and their minima tie exactly. The split
    zeroes the powers in place only when they are the workspace's own
    C-ordered ``powers``, which :func:`rsmeta.linalg.channel_project`
    wrote and nothing reads after; any other array is copied first, so no
    caller's array is written.
    """
    if workspace is not None and powers.flags.c_contiguous \
            and workspace.owns(powers, "powers"):
        pw = powers
    else:
        pw = np.array(powers, order="C")
    *batch, n_act, k, m = pw.shape
    first_prv = n_act - k
    shape = (*batch, *layout.layer_rows.shape, m)
    num = _array(workspace, "sinr", shape)
    den = _array(workspace, "den", shape)
    den_c = den[..., 0, :, :]
    # the whole sums, taken before the own rows are zeroed
    if layout.mode == "hierarchical":
        all_p = np.add.reduce(pw[..., first_prv:, :, :], axis=-3,
                              out=_array(workspace, "private_sum",
                                         (*batch, k, m)))
        np.add.reduce(pw[..., 1:first_prv, :, :], axis=-3, out=den_c)
        den_c += all_p
    else:
        np.add.reduce(pw[..., 1:, :, :], axis=-3, out=den_c)
    den_c += noise
    _own_and_others(pw, layout, num, den[..., 1:, :, :])
    if layout.mode == "hierarchical":
        den[..., 2, :, :] += den[..., 1, :, :]
        den[..., 1, :, :] += all_p
    den[..., 1:, :, :] += noise
    return num, den


def _avg_rates(sinr: np.ndarray, log_rate: np.ndarray,
               workspace: ProjectionWorkspace = None) -> np.ndarray:
    """Per-user rates log2(1 + sinr) averaged over the realizations,
    (..., n_layers, n_users), from the stacked SINRs. The per-draw rates
    are written into ``log_rate``: ``sinr`` itself on the forward paths,
    which need no SINR after it, a separate array on the backward's."""
    r = np.log1p(sinr, out=log_rate)
    r *= 1.0 / _LN2
    avg = np.add.reduce(r, axis=-1,
                        out=_array(workspace, "rates", sinr.shape[:-1]))
    avg /= sinr.shape[-1]
    return avg


def _asr_of_rates(rates: np.ndarray, layout: StreamLayout):
    """Averaged sum rate from the stacked averaged per-user rates, (...,
    n_layers, n_users): the common minimum plus the private sum, then
    each group's minimum in group order. Every reader, the training loss
    included, takes its rate here."""
    asr = np.minimum.reduce(rates[..., 0, :], axis=-1) \
        + np.add.reduce(rates[..., -1, :], axis=-1)
    if layout.mode == "hierarchical":
        for members in layout.member_rows:
            asr = asr + np.minimum.reduce(rates[..., 1, members], axis=-1)
    return asr


def _rate_weights(rates: np.ndarray, layout: StreamLayout,
                  workspace: ProjectionWorkspace = None) -> np.ndarray:
    """The gradient of :func:`_asr_of_rates` with respect to unbatched
    rates, stacked like them, (n_layers, n_users): one on every private
    rate, and on the common row and each group's members the hard
    minimum's subgradient, a one-hot on the lowest minimizing user."""
    w = _array(workspace, "rate_grad", rates.shape)
    w[:-1] = 0.0
    w[-1] = 1.0
    w[0, rates[0].argmin()] = 1.0
    if layout.mode == "hierarchical":
        for members in layout.member_rows:
            w[1, members[rates[1, members].argmin()]] = 1.0
    return w


def asr_from_powers(powers: np.ndarray, layout: StreamLayout,
                    noise: float):
    """Averaged sum rate from the |h^H p|^2 of the active columns, shaped
    (..., n_active, n_users, n_draws) as :func:`_layer_terms` reads them;
    leading axes are a batch, and each rate of the result, shaped
    ``powers.shape[:-3]``, has the bits of a call on its slice alone."""
    return asr_from_terms(*_layer_terms(powers, layout, noise), layout)


def asr_from_terms(num: np.ndarray, den: np.ndarray, layout: StreamLayout):
    """Averaged sum rate from every layer's numerators and denominators,
    stacked (..., n_layers, n_users, n_draws) as :func:`_layer_terms`
    returns them, in any strides; ``num`` is overwritten. Leading axes
    are a batch, and each rate of the result has the bits of a call on its
    slice alone."""
    sinr = np.divide(num, den, out=num)
    return _asr_of_rates(_avg_rates(sinr, sinr), layout)


def loss_from_view(v: np.ndarray, ens: ChannelEnsemble,
                   layout: StreamLayout) -> float:
    """Negative averaged sum rate of the precoder encoded by the view."""
    powers, _, _ = channel_project(ens.realizations, _columns(v, layout))
    return -float(asr_from_powers(powers, layout, ens.noise_power))


def _asr_and_power_grad(powers: np.ndarray, layout: StreamLayout,
                        noise: float, workspace: ProjectionWorkspace = None):
    """Averaged sum rate from the |h^H p|^2 of the active columns, and its
    gradient with respect to those powers: ``(asr, d asr / d powers)``.

    One vjp takes every layer's ``mean(log2(1 + num / den))`` back to its
    stacked numerators and denominators. The gradient is a C-ordered
    array shaped like ``powers``: the workspace's ``power_grad`` when
    there is a workspace.
    """
    sinr, den = _layer_terms(powers, layout, noise, workspace)
    sinr /= den
    rates = _avg_rates(sinr, _array(workspace, "log_rate", sinr.shape),
                       workspace)
    asr = float(_asr_of_rates(rates, layout))
    g_rate = _rate_weights(rates, layout, workspace)
    g_rate /= sinr.shape[-1]
    g_rate *= 1.0 / _LN2
    g_num = np.add(1.0, sinr, out=_array(workspace, "log_rate", sinr.shape))
    np.divide(g_rate[..., None], g_num, out=g_num)
    g_num /= den
    g_den = np.negative(g_num, out=den)
    g_den *= sinr

    # every column but the common one sits in the common denominator, and
    # each later layer's denominator sums the same rows but the user's own
    # power in that layer and the layers before: those rows get the summed
    # denominator gradient, and each user's own group and private powers
    # their layer's numerator term less that layer's summed denominator
    # term on top
    if layout.mode == "hierarchical":
        g_den[1] += g_den[2]
    g_pw = _array(workspace, "power_grad", powers.shape)
    g_pw[0] = g_num[0]
    np.add(g_den[0], g_den[1], out=g_pw[1])
    g_pw[2:] = g_pw[1]
    g_num[1:] -= g_den[1:]
    g_pw.reshape(-1, g_pw.shape[-1])[layout.layer_rows[1:]] += g_num[1:]
    return asr, g_pw


def _loss_core(v: np.ndarray, ens: ChannelEnsemble, layout: StreamLayout,
               workspace: ProjectionWorkspace):
    """``(loss, dz, ws)``: the loss at the view ``v``, its gradient for the
    projection's pairs ``z``, written over them, and the workspace ``ws``
    that the projection, the rate backward and ``dz`` live in: the given
    one or a throwaway one."""
    powers, z, ws = channel_project(ens.realizations, _columns(v, layout),
                                    workspace)
    asr, g_pow = _asr_and_power_grad(powers, layout, ens.noise_power, ws)
    # the loss is -asr and d|z|^2 = 2 (Re z dRe z + Im z dIm z); in place,
    # as fresh arrays of this size cost more in page faults than arithmetic
    g_pow *= -2.0
    z *= g_pow
    return -asr, z, ws


def grad_wrt_precoder(p, ens: ChannelEnsemble, layout: StreamLayout,
                      workspace: ProjectionWorkspace = None):
    """Loss and its gradient with respect to the precoder view.

    ``p`` is a view or a precoder. Returns ``(loss, grad)`` with ``grad`` in
    view coordinates, so it can be fed straight into the update network or
    a first-order step. Closed form: :func:`_loss_core`, then one real
    matrix product with its channel copy maps d(loss)/d(z) back to the
    view. ``grad`` is fresh, with or without a ``workspace`` built for
    ``ens.realizations``.
    """
    loss, dz, ws = _loss_core(_view_in(p, layout), ens, layout, workspace)
    return loss, _project_back(dz, ws.hr)


def candidate_view(params: MetaNetParams, p0_view: np.ndarray,
                   g0_view: np.ndarray, p_t: float) -> np.ndarray:
    """Network proposal applied to the start point, then power-projected."""
    delta = mlp_forward(params, g0_view)
    return project_view(np.asarray(p0_view, dtype=float) + delta, p_t)


def grad_wrt_theta(params: MetaNetParams, p0, g0_view: np.ndarray,
                   ens: ChannelEnsemble, layout: StreamLayout, p_t: float,
                   workspace: ProjectionWorkspace = None):
    """Differentiate the full pipeline with respect to network parameters.

    Pipeline: frozen gradient view in, network proposal out, add to the
    start point ``p0`` (a view or a precoder), project onto the power
    ball, evaluate the loss. The start point and the input gradient are
    constants here; only the network parameters carry gradient. The
    candidate is :func:`candidate_view`'s. The backward pass is by hand:
    :func:`_loss_core` at the candidate, the adjoint of the |h^H p|^2
    projection, the radial power projection, then the MLP.

    Returns ``(loss, grad_theta, cand_view)`` where ``loss`` is the loss at
    the projected candidate, ``grad_theta`` is laid out as ``params.theta``,
    and ``cand_view`` is the candidate in view coordinates; all
    fresh, with or without a ``workspace`` built for ``ens.realizations``.
    """
    acts = _activations(params, g0_view)
    raw = np.asarray(_view_in(p0, layout), dtype=float) + acts[-1]
    cand, tr, scale = _radial(raw, p_t)

    loss, dz, ws = _loss_core(cand, ens, layout, workspace)
    # the adjoint is an einsum over the workspace's user-major h, ws.hu, of
    # dz made complex and user-major in the memory of the powers, which are
    # dead by now; it is not grad_wrt_precoder's product with hr: the two
    # differ in their last bits
    w = _user_major(dz, ws.array("powers", dz.shape))
    g = _view(np.einsum("mik,mks->is", ws.hu, w))

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
    return loss, grad, cand
