"""The layered-rate core and the two hand-written objective gradients.

Both gradients run one loss core, :func:`_loss_core`: the |h^H p|^2
projection of the view's rows, :func:`rsmeta.linalg._project`, the rate
backward :func:`_rate_backward`, and the projection's inner products, (Re,
Im) pairs stream-major and draw-minor, scaled in place by the power
gradient. They differ only in the adjoint that takes those pairs to the
view:

* :func:`grad_wrt_precoder`: one real matrix product with the
  projection's channel copy, :func:`rsmeta.linalg._project_back`.
* :func:`grad_wrt_theta`, at the network's power-projected candidate: an
  ``einsum`` over the projection's complex user-major channel copy,
  :attr:`rsmeta.linalg.ProjectionWorkspace.hu`, then the radial projection
  ``v * sqrt(P / tr)`` and the ReLU MLP, written into a ``theta``-shaped
  array through its layer views (:class:`rsmeta.network.MetaNetParams`):
  the run's one θ-gradient network, or one built on a fresh array.

Every path, the plain loss included, gets |h^H p|^2 from that projection
of the view's rows and runs one layered-rate arithmetic, so equal
precoders give bit-equal losses. The objective is the paper's averaged sum
rate, whose common and group rates are hard minima; their gradient is the
lowest minimizing user's one-hot (:func:`_rate_weights`).
:func:`_fill_terms` gathers every layer's numerators and builds every
layer's denominator, each stacked with the layers in decoding order
(common, group if there are groups, private). Every denominator is a sum,
and none is a difference: the common one adds up whole rows, and the later
ones add up each user's interference, which one helper,
:func:`_own_and_others`, tells from its own powers by zeroing them. Every
reader then passes these complete terms to one tail: the division, one
``log1p`` and one average over the realizations for all layers
(:func:`_avg_rates`), and the minima and sums (:func:`_asr_of_rates`),
which give the training loss and the plain loss the same bits;
:func:`_rate_backward` takes the whole stack back in one vjp. The forward
rates also take leading batch axes, the backward none. The fixed-direction
search's six gain rows are a forward pass's numerators and later
denominators over its gains, and ones; each chunk of power splits has its
complete terms as one matrix product with them
(:func:`rsmeta.baselines.run_fixed_direction`); each chunk's averaged
rates come from the tail's first half, :func:`_rates_from_terms`, and the
whole lattice takes its minima and sums in one call of
:func:`_asr_of_rates`. :mod:`rsmeta.gradcheck`'s tie guard reads the
stacked averaged rates that :func:`loss_from_view` reads
(:func:`_view_rates`). Every pass is one type, :class:`_Terms`, owning its
arrays, allocated when it is built, with views derived then; the plain
loss and the search build one over their throwaway workspace's powers.
The gradients run on a :class:`rsmeta.linalg.ProjectionWorkspace` built
for the ensemble and the layout's columns, the given one or a throwaway
one: they fill the arrays it allocated with its channel copy and those of
the one rate pass it keeps (:func:`_kept_terms`) in place, bit-identically,
and return nothing that points into them; both optimizers pass their
run's workspace on every iteration.

The view is the memory of the complex (n_tx, n_streams) precoder matrix,
column-major, read as float64 pairs, so going between the two is no
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
from .linalg import ProjectionWorkspace, _project, _project_back, \
    _user_major
from .network import MetaNetParams, _activations, mlp_forward
from .rates import _LN2

__all__ = ["view_length", "precoder_to_view", "view_to_precoder",
           "loss_from_view", "candidate_view", "project_view",
           "grad_wrt_precoder", "grad_wrt_theta"]

# ---------------------------------------------------------------------------
# real view of the precoder
# ---------------------------------------------------------------------------

def view_length(layout: StreamLayout) -> int:
    """Real degrees of freedom: 2 per complex entry of each column."""
    return 2 * layout.n_tx * layout.n_streams


def _rows(v, layout: StreamLayout) -> np.ndarray:
    """The view as C-ordered (n_streams, n_tx, 2) rows of float64 (Re, Im)
    pairs, one per column: the view's memory when it is a contiguous
    float64 array; a view of another length raises ValueError."""
    return np.ascontiguousarray(v, dtype=float).reshape(
        layout.n_streams, layout.n_tx, 2)


def _view(cols: np.ndarray) -> np.ndarray:
    """The view of a complex (n_tx, n_streams) matrix: its column-major
    memory read as float64 pairs, shared with a column-major ``cols``."""
    return np.ascontiguousarray(cols.T).view(float).ravel()


def _view_in(p, layout: StreamLayout) -> np.ndarray:
    """A view (any 1-d array) as it is, a precoder as its view."""
    return p if np.ndim(p) == 1 else precoder_to_view(p, layout)


def precoder_to_view(p, layout: StreamLayout) -> np.ndarray:
    """The view of a precoder or of its (n_tx, n_streams) matrix; a matrix
    of another shape, a transposed one included, raises ValueError."""
    mat = np.asarray(getattr(p, "matrix", p), dtype=complex)
    if mat.shape != (layout.n_tx, layout.n_streams):
        raise ValueError(f"precoder shape {mat.shape} does not match layout")
    return _view(mat)


def view_to_precoder(v: np.ndarray, layout: StreamLayout) -> np.ndarray:
    """Inverse of :func:`precoder_to_view`: the view's matrix, as a fresh
    C-ordered array."""
    return np.ascontiguousarray(_rows(v, layout).view(complex)[..., 0].T)


def _radial(v: np.ndarray, p_t: float, out: np.ndarray = None):
    """The view scaled back onto the power ball if it exceeds the budget:
    ``(cand, tr, scale)`` with ``tr = sum(v * v)`` and ``cand = v * scale``
    in ``out`` or fresh, ``scale`` None (and ``cand`` the very ``v``) inside
    the ball."""
    tr = np.add.reduce(v * v)
    if tr > p_t:
        scale = np.sqrt(p_t / tr)
        return np.multiply(v, scale, out=out), tr, scale
    return v, tr, None


def project_view(v: np.ndarray, p_t: float,
                 out: np.ndarray = None) -> np.ndarray:
    """Scale the view back onto the power ball if it exceeds the budget,
    into ``out`` (``v`` itself to scale in place) or a fresh array; a view
    inside the ball comes back as it is."""
    return _radial(v, p_t, out)[0]


# ---------------------------------------------------------------------------
# plain evaluation path and the closed-form precoder gradient
# ---------------------------------------------------------------------------

class _Terms:
    """The arrays of one layered-rate pass over C-ordered stream-major
    powers ``pw``, (..., n_streams, n_users, n_draws), each allocated when
    the pass is built, and their views, derived once.

    The views of ``pw`` that :func:`_own_and_others` reads and zeroes,
    and the arrays it and :func:`_fill_terms` fill: the stacked numerators
    ``num``, which become the SINRs, and denominators ``den``, (...,
    n_layers, n_users, n_draws), with the common row ``den_c``, the later
    rows ``den_later``, the second row ``den_1`` (the group one with
    groups, else the private one) and the private row ``den_p``, and with
    groups the private-power sum ``all_p``. Each denominator ends in the
    unit noise, so that the precoder's power ``p_t`` sets the SNR. The
    fixed-direction search builds a forward pass over its directions'
    gains, runs :func:`_own_and_others` alone on it and takes its basis
    rows from ``num`` and ``den_later``.
    With ``backward``, for unbatched powers, also the rate backward's
    arrays: the averaged ``rates`` and the ``rate_grad`` stacked like them,
    the per-draw ``log_rate``, which becomes the numerator gradient, and
    the ``power_grad`` shaped like ``pw``, with their rows and slices.
    """

    def __init__(self, pw: np.ndarray, layout: StreamLayout,
                 backward: bool = False):
        *batch, n_s, k, m = pw.shape
        first_prv = n_s - k
        shape = (*batch, *layout.layer_rows.shape, m)
        self.layout, self.n_draws = layout, m
        self.hier = layout.n_groups > 0
        self.layer_rows = layout.layer_rows
        self.own_group_rows = layout.layer_rows[1]
        self.rows = pw.reshape(*batch, n_s * k, m)
        # user u's own private row, first_prv * k + u * (k + 1), is a stride
        self.own_private = self.rows[..., first_prv * k::k + 1, :]
        self.groups = pw[..., 1:first_prv, :, :]
        self.privates = pw[..., first_prv:, :, :]
        self.num = np.empty(shape)
        den = self.den = np.empty(shape)
        self.den_c, self.den_later = den[..., 0, :, :], den[..., 1:, :, :]
        self.den_1, self.den_p = den[..., 1, :, :], den[..., -1, :, :]
        self.all_p = np.empty((*batch, k, m)) if self.hier else None
        if not backward:
            return
        self.rates = np.empty(shape[:-1])
        self.rate_grad = np.empty(shape[:-1])
        self.rate_grad_col = self.rate_grad[..., None]
        self.log_rate = np.empty(shape)
        self.g_num_c, self.g_num_later = self.log_rate[0], self.log_rate[1:]
        self.g_num_1, self.g_num_p = self.log_rate[1], self.log_rate[-1]
        g_pw = self.power_grad = np.empty(pw.shape)
        self.g_pw_c, self.g_pw_1, self.g_pw_rest = g_pw[0], g_pw[1], g_pw[2:]
        self.g_pw_rows = g_pw.reshape(n_s * k, m)
        self.g_pw_own_private = self.g_pw_rows[first_prv * k::k + 1]


def _own_and_others(t: _Terms) -> None:
    """Split the powers that ``t`` views into each user's own power per
    layer and its interference.

    ``t.num`` gets the own powers, one gather
    (:attr:`StreamLayout.layer_rows`). Those rows of the powers are then
    set to zero, so that ``den``'s later rows get sums with nothing to
    subtract: with groups, the other groups' powers at each user in
    ``t.den_1``, then the other users' private powers in ``t.den_p``. The
    powers are overwritten. This is the one place that tells a user's own
    powers from its interference, for the training loss and the
    fixed-direction search alike.
    """
    # mode="clip" (the rows are in range) writes straight into ``num``;
    # the default mode would fill a buffer and copy it
    np.take(t.rows, t.layer_rows, axis=-2, out=t.num, mode="clip")
    t.own_private.fill(0.0)
    if t.hier:
        t.rows[..., t.own_group_rows, :] = 0.0
        np.add.reduce(t.groups, axis=-3, out=t.den_1)
    np.add.reduce(t.privates, axis=-3, out=t.den_p)


def _kept_terms(ws: ProjectionWorkspace, layout: StreamLayout) -> _Terms:
    """The rate pass over the powers of the workspace's projections of
    ``layout``'s columns: built on the first pass and kept as the
    workspace's :attr:`~rsmeta.linalg.ProjectionWorkspace.rate_pass`; a
    pass for another layout raises ValueError. The pass zeroes each user's
    own powers in place, which nothing reads after."""
    t = ws.rate_pass
    if t is None:
        t = ws.rate_pass = _Terms(ws.powers, layout, backward=True)
    elif t.layout is not layout and t.layout != layout:
        raise ValueError(f"the workspace's rate pass is for {t.layout}, "
                         f"got {layout}")
    return t


def _fill_terms(t: _Terms):
    """Every layer's numerators and denominators, ``(num, den)``, each
    stacked (..., n_layers, n_users, n_draws), written into ``t``'s arrays
    from the |h^H p|^2 of the columns it views.

    The common denominator adds the group rows, then the private rows, in
    column order. :func:`_own_and_others` then gathers the numerators and
    writes the interference sums into ``den``'s later slots, and every
    later denominator is a sum too, so nothing is subtracted: the group
    one is the other groups' powers plus every private power, the private
    one the other groups' plus the other users' private powers. The noise
    is unit, so that the precoder's power ``p_t`` sets the SNR, and its 1
    is added to the whole stack at once, the last term of every
    denominator. Two users of one group whose channels are equal thus get
    the same common and group denominators, bit for bit, and their minima
    tie exactly.
    """
    # the whole sums, taken before the own rows are zeroed
    if t.hier:
        np.add.reduce(t.privates, axis=-3, out=t.all_p)
        np.add.reduce(t.groups, axis=-3, out=t.den_c)
        t.den_c += t.all_p
    else:
        np.add.reduce(t.privates, axis=-3, out=t.den_c)
    _own_and_others(t)
    if t.hier:
        t.den_p += t.den_1
        t.den_1 += t.all_p
    t.den += 1.0
    return t.num, t.den


def _avg_rates(sinr: np.ndarray, log_rate: np.ndarray,
               out: np.ndarray = None) -> np.ndarray:
    """Per-user rates log2(1 + sinr) averaged over the realizations,
    (..., n_layers, n_users), from the stacked SINRs, in ``out`` or fresh.
    The per-draw rates are written into ``log_rate``: ``sinr`` itself on
    the forward paths, which need no SINR after it, a separate array on
    the backward's."""
    r = np.log1p(sinr, out=log_rate)
    r *= 1.0 / _LN2
    avg = np.add.reduce(r, axis=-1, out=out)
    avg /= sinr.shape[-1]
    return avg


def _asr_of_rates(rates: np.ndarray, layout: StreamLayout):
    """Averaged sum rate from the stacked averaged per-user rates, (...,
    n_layers, n_users): the common minimum plus the private sum, then
    each group's minimum in group order. Every reader, the training loss
    included, takes its rate here."""
    asr = np.minimum.reduce(rates[..., 0, :], axis=-1) \
        + np.add.reduce(rates[..., -1, :], axis=-1)
    for members in layout.member_rows:
        asr = asr + np.minimum.reduce(rates[..., 1, members], axis=-1)
    return asr


def _rate_weights(rates: np.ndarray, layout: StreamLayout,
                  out: np.ndarray = None) -> np.ndarray:
    """The gradient of :func:`_asr_of_rates` with respect to unbatched
    rates, stacked like them, (n_layers, n_users), in ``out`` or fresh:
    one on every private rate, and on the common row and each group's
    members the hard minimum's subgradient, a one-hot on the lowest
    minimizing user."""
    w = np.empty(rates.shape) if out is None else out
    w[:-1] = 0.0
    w[-1] = 1.0
    w[0, rates[0].argmin()] = 1.0
    for members in layout.member_rows:
        w[1, members[rates[1, members].argmin()]] = 1.0
    return w


def _rates_from_terms(num: np.ndarray, den: np.ndarray,
                      out: np.ndarray = None) -> np.ndarray:
    """Averaged per-user rates, (..., n_layers, n_users), in ``out`` or
    fresh, from every layer's numerators and denominators, stacked (...,
    n_layers, n_users, n_draws) as :func:`_fill_terms` returns them, in
    any strides; ``num`` is overwritten with the per-draw rates. Leading
    axes are a batch, and each slice of the result has the bits of a call
    on its slice alone."""
    sinr = np.divide(num, den, out=num)
    return _avg_rates(sinr, sinr, out)


def _view_rates(v, ens: ChannelEnsemble,
                layout: StreamLayout) -> np.ndarray:
    """The stacked averaged per-user rates, (n_layers, n_users), of the
    precoder encoded by the view: one projection of its rows on a
    throwaway workspace, then one forward pass over that workspace's
    powers, which it zeroes in part and nothing reads after."""
    ws = _project(ens.realizations, _rows(v, layout))
    return _rates_from_terms(*_fill_terms(_Terms(ws.powers, layout)))


def loss_from_view(v: np.ndarray, ens: ChannelEnsemble,
                   layout: StreamLayout) -> float:
    """Negative averaged sum rate of the precoder encoded by the view."""
    return -float(_asr_of_rates(_view_rates(v, ens, layout), layout))


def _rate_backward(t: _Terms, scale: float):
    """``(asr, scale * d asr / d powers)`` over the powers ``t`` views, the
    gradient in ``t.power_grad``; ``scale`` must be a power of two, so that
    it scales every bit of the gradient exactly.

    One vjp takes every layer's ``mean(log2(1 + num / den))`` back to its
    stacked numerators and denominators; ``scale`` enters with the rate
    weights, so it costs no pass over the powers.
    """
    sinr, den = _fill_terms(t)
    sinr /= den
    rates = _avg_rates(sinr, t.log_rate, t.rates)
    asr = float(_asr_of_rates(rates, t.layout))
    g_rate = _rate_weights(rates, t.layout, t.rate_grad)
    g_rate /= t.n_draws
    g_rate *= scale / _LN2
    g_num = np.add(1.0, sinr, out=t.log_rate)
    np.divide(t.rate_grad_col, g_num, out=g_num)
    g_num /= den
    g_den = np.negative(g_num, out=den)
    g_den *= sinr

    # every column but the common one sits in the common denominator, and
    # each later layer's denominator sums the same rows but the user's own
    # power in that layer and the layers before: those rows get the summed
    # denominator gradient, and each user's own group and private powers
    # their layer's numerator term less that layer's summed denominator
    # term on top. ``den`` holds the denominator gradient now, and its
    # views read it
    if t.hier:
        t.den_1 += t.den_p
    t.g_pw_c[...] = t.g_num_c
    np.add(t.den_c, t.den_1, out=t.g_pw_1)
    t.g_pw_rest[...] = t.g_pw_1
    t.g_num_later -= t.den_later
    if t.hier:
        t.g_pw_rows[t.own_group_rows] += t.g_num_1
    t.g_pw_own_private += t.g_num_p
    return asr, t.power_grad


def _loss_core(v: np.ndarray, ens: ChannelEnsemble, layout: StreamLayout,
               workspace: ProjectionWorkspace):
    """``(loss, ws)``: the loss at the view ``v``, and the workspace
    ``ws`` that the projection, the rate backward and the loss's gradient
    for the projection's pairs live in, the given one or a throwaway one,
    whose ``z`` and ``z2`` hold that gradient, written over the pairs. The
    rate backward runs on the rate pass that ``ws`` keeps
    (:func:`_kept_terms`)."""
    ws = _project(ens.realizations, _rows(v, layout), workspace)
    # the loss is -asr and d|z|^2 = 2 (Re z dRe z + Im z dIm z): the rate
    # backward scales by -2, and the pairs are scaled in place, as fresh
    # arrays of this size cost more in page faults than arithmetic
    asr, g_pow = _rate_backward(_kept_terms(ws, layout), -2.0)
    np.multiply(ws.z, g_pow, out=ws.z)
    return -asr, ws


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
    loss, ws = _loss_core(_view_in(p, layout), ens, layout, workspace)
    return loss, _project_back(ws.z2, ws.hr_t)


def candidate_view(params: MetaNetParams, p0_view: np.ndarray,
                   g0_view: np.ndarray, p_t: float) -> np.ndarray:
    """Network proposal applied to the start point, then power-projected."""
    delta = mlp_forward(params, g0_view)
    return project_view(np.asarray(p0_view, dtype=float) + delta, p_t)


def grad_wrt_theta(params: MetaNetParams, p0, g0_view: np.ndarray,
                   ens: ChannelEnsemble, layout: StreamLayout, p_t: float,
                   workspace: ProjectionWorkspace = None,
                   out: MetaNetParams = None):
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
    and ``cand_view`` is the candidate in view coordinates, fresh, with or
    without a ``workspace`` built for ``ens.realizations``.
    ``grad_theta`` is written through the layer views of ``out``, a network
    of ``params``' dims that holds the gradient, and is ``out.theta``;
    without ``out`` it is a network built on a fresh array. A run passes
    the same ``out`` on every iteration, so no θ-sized array is allocated
    again.
    """
    acts = _activations(params, g0_view)
    raw = np.asarray(_view_in(p0, layout), dtype=float) + acts[-1]
    cand, tr, scale = _radial(raw, p_t)

    loss, ws = _loss_core(cand, ens, layout, workspace)
    # the adjoint is an einsum over the workspace's user-major h, ws.hu, of
    # dz made complex and user-major in the memory of the powers' squares,
    # which are dead by now; it is not grad_wrt_precoder's product with hr:
    # the two differ in their last bits
    w = _user_major(ws.z, ws.sq)
    g = _view(np.einsum("mik,mks->is", ws.hu, w))

    if scale is not None:
        # cand = raw * sqrt(p_t / tr) with tr = raw . raw
        g_tr = (-(np.add.reduce(g * raw) / (2.0 * scale)) * p_t) \
            / (tr * tr)
        g = g * scale + (2.0 * g_tr) * raw

    # layer i maps acts[i] to acts[i + 1], a hidden layer's ReLU passes
    # gradient where it is positive, and dL/dθ fills the layers of ``out``
    # or of a fresh θ
    if out is None:
        out = MetaNetParams(np.empty(params.n_params), params.dims)
    grad, g_w, g_b = out.theta, out.weights, out.biases
    for i in range(len(g_w) - 1, -1, -1):
        np.multiply.outer(g, acts[i], out=g_w[i])
        g_b[i][...] = g
        if i:
            g = (params.weights[i].T @ g) * (acts[i] > 0)
    return loss, grad, cand
