"""Objective gradients and their finite-difference verification.

Two gradients drive everything downstream, both written by hand:

* the gradient of the averaged-rate loss with respect to the precoder,
  taken in a flattened real view of the active columns
  (:func:`grad_wrt_precoder`): a backward pass through each layer's
  averaged ``log2(1 + num/den)`` and the minima, then one matrix product
  back to the precoder; and
* the gradient of the same loss, evaluated at the network-proposed and
  power-projected candidate, with respect to the network parameters
  (:func:`grad_wrt_theta`): the same rate backward at the candidate, the
  adjoint of the |h^H p|^2 projection, the radial power projection
  ``v * sqrt(P / tr)``, then the ReLU MLP.

Both map |h^H p|^2 to the averaged sum rate and its gradient in one place,
:func:`_asr_and_power_grad`. The tests check both gradients against a
reverse-mode tape that records the same loss op by op, with the same
losses bit for bit, and :func:`grad_wrt_theta` bit for bit against the
tape with the rates recorded as one node.

Every path, and the plain loss, gets |h^H p|^2 from the one projection
:func:`rsmeta.linalg.channel_project` and computes the rates with the same
code, so equal precoders give bit-equal losses on every path. The rate code
reads the powers stream-major and draw-minor, (n_streams, n_users,
n_draws) in memory, and keeps every per-user array (n_users, n_draws): a
layer's power sum adds whole rows in column order, each user's own group
and private powers are one gather each, the averages over realizations
run along contiguous memory, and the power gradient is written row by
row. The forward rate code, :func:`rates_from_powers` and the
hard-minimum sum rates of :func:`_batch_asr` (which build no gradient
weights), also takes a batch of powers, any leading axes kept outermost:
each slice keeps its stream-major, draw-minor rows and gets the bits of
its own unbatched call. The fixed-direction search scores its power
lattice that way; the backward pass is unbatched.
:func:`grad_wrt_precoder`, :func:`grad_wrt_theta` and
:func:`loss_from_view` take an optional
:class:`rsmeta.linalg.ProjectionWorkspace` built for the ensemble: its
channel copy, projection and power gradient are then filled in place
instead of allocated, with bit-identical results, and what the functions
return never points into it. Both optimizers pass their run's workspace
on every iteration.

The view is fixed package-wide: the memory of the complex (n_tx, n_active)
matrix of the active columns, column by column, read as float64 pairs.
Going between the two is no arithmetic, and both gradients take either.
The squared view norm equals the precoder power, so the power projection
is a one-line rescale in view space; every path runs the same rescale and
the same network forward, so a candidate has the same bits on each.

Every gradient here is checkable against central differences of the plain
evaluation path, :func:`loss_from_view`; :func:`gradcheck_suite` packages
that with instance guards against minimum ties and the projection branch
boundary, the two places the objective is only piecewise smooth.
"""
from __future__ import annotations

import numpy as np

from .channel import ChannelEnsemble, IidCsitModel
from .layout import StreamLayout
from .linalg import (ProjectionWorkspace, RngStream, channel_project,
                     gaussian_matrix)
from .network import MetaNetParams, _activations, init_meta_net, mlp_forward
from .rates import _LN2

__all__ = ["view_length", "precoder_to_view", "view_to_precoder",
           "loss_from_view", "candidate_view", "project_view",
           "rates_from_powers", "asr_from_powers",
           "grad_wrt_precoder", "grad_wrt_theta",
           "finite_diff_check", "gradcheck_suite"]

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
    tr = np.sum(v * v)
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

def _layer_terms(powers: np.ndarray, layout: StreamLayout, noise: float):
    """SINRs and their denominators, ``(sinr, den)`` per layer, from the
    |h^H p|^2 of the active columns: (common, group or None, private),
    each shaped (..., n_users, n_draws).

    ``powers`` is (..., n_draws, n_users, n_active); any leading axes are
    a batch, kept outermost. The powers are read stream-major and
    draw-minor, as the last three axes reversed: no copy for
    :func:`rsmeta.linalg.channel_project`'s, a contiguous one of any other
    array, so both give the same bits. A layer's power sum adds its rows
    one after another, in column order, and every batch slice gets the
    bits of its own unbatched call.
    """
    pw = np.ascontiguousarray(np.swapaxes(powers, -1, -3))
    rows = layout.user_rows
    if layout.mode == "hierarchical":
        first_prv = 1 + layout.n_groups
        den_c = np.sum(pw[..., 1:first_prv, :, :], axis=-3) \
            + np.sum(pw[..., first_prv:, :, :], axis=-3) + noise
        own_g = pw[..., layout.own_group_cols, rows, :]
        den_g = den_c - own_g
        grp = (own_g / den_g, den_g)
    else:
        first_prv = 1
        den_c = den_g = np.sum(pw[..., 1:, :, :], axis=-3) + noise
        grp = None
    own_p = pw[..., first_prv + rows, rows, :]
    den_p = den_g - own_p
    return (pw[..., 0, :, :] / den_c, den_c), grp, (own_p / den_p, den_p)


def _avg_rate(term):
    """Per-user rate log2(1 + sinr), averaged over realizations, of a layer
    term ``(sinr, den)``; None for no layer."""
    return None if term is None else \
        np.mean(np.log1p(term[0]) * (1.0 / _LN2), axis=-1)


def _avg_rate_vjp(g_rate: np.ndarray, sinr: np.ndarray, den: np.ndarray):
    """Gradients of ``g_rate . _avg_rate((num / den, den))`` wrt num and
    den, from the forward pass's ``sinr = num / den``."""
    g_num = (g_rate[:, None] / sinr.shape[1]) * (1.0 / _LN2) \
        / (1.0 + sinr) / den
    return g_num, -g_num * sinr


def _min_and_weights(x: np.ndarray, smooth_temp: float = None):
    """Hard or smooth minimum of ``x`` and its gradient weights.

    The hard minimum's subgradient is a one-hot on the lowest minimizing
    index; the smooth minimum -T log sum exp(-x / T) has its softmax
    weights.
    """
    if smooth_temp is not None:
        if not smooth_temp > 0:
            raise ValueError(f"smooth_temp must be None or positive, "
                             f"got {smooth_temp}")
        m0 = np.min(x)
        e = np.exp(-(x - m0) / smooth_temp)
        s = np.sum(e)
        return m0 - smooth_temp * np.log(s), e / s
    w = np.zeros_like(x)
    w[np.argmin(x)] = 1.0
    return np.min(x), w


def _sum_rate(rc, rg, rp, layout: StreamLayout, smooth_temp: float = None):
    """Averaged sum rate from averaged per-user rates, with its gradient
    weights on ``rc`` and ``rg`` (every private rate has weight one)."""
    asr, w_c = _min_and_weights(rc, smooth_temp)
    asr = asr + np.sum(rp)
    w_g = None
    if rg is not None:
        w_g = np.zeros_like(rg)
        for members in layout.member_rows:
            val, w_g[members] = _min_and_weights(rg[members], smooth_temp)
            asr = asr + val
    return float(asr), w_c, w_g


def rates_from_powers(powers: np.ndarray, layout: StreamLayout,
                      noise: float):
    """Averaged per-user rates (common, group or None, private) from the
    |h^H p|^2 of the active columns, shaped (..., n_draws, n_users,
    n_active) in any memory order; leading axes are a batch."""
    return tuple(map(_avg_rate, _layer_terms(powers, layout, noise)))


def _batch_asr(powers: np.ndarray, layout: StreamLayout,
               noise: float) -> np.ndarray:
    """Averaged sum rates with hard minima, shaped ``powers.shape[:-3]``,
    from a batch of |h^H p|^2 shaped (..., n_draws, n_users, n_active).

    Each is :func:`asr_from_powers` of its slice, bit for bit: the same
    minima and sums, per slice, without :func:`_sum_rate`'s gradient
    weights.
    """
    rc, rg, rp = rates_from_powers(powers, layout, noise)
    asr = np.min(rc, axis=-1) + np.sum(rp, axis=-1)
    if rg is not None:
        for members in layout.member_rows:
            asr = asr + np.min(rg[..., members], axis=-1)
    return asr


def asr_from_powers(powers: np.ndarray, layout: StreamLayout, noise: float,
                    smooth_temp: float = None) -> float:
    """Averaged sum rate from the |h^H p|^2 of the active columns."""
    return _sum_rate(*rates_from_powers(powers, layout, noise), layout,
                     smooth_temp)[0]


def loss_from_view(v: np.ndarray, ens: ChannelEnsemble, layout: StreamLayout,
                   smooth_temp: float = None,
                   workspace: ProjectionWorkspace = None) -> float:
    """Negative averaged sum rate of the precoder encoded by the view.

    ``workspace``, built for ``ens.realizations``, supplies the arrays of
    the projection; without one they are fresh.
    """
    powers, _, _ = channel_project(ens.realizations, _columns(v, layout),
                                   workspace)
    return -asr_from_powers(powers, layout, ens.noise_power, smooth_temp)


def _asr_and_power_grad(powers: np.ndarray, layout: StreamLayout,
                        noise: float, smooth_temp: float = None,
                        workspace: ProjectionWorkspace = None):
    """Averaged sum rate from the |h^H p|^2 of the active columns, and its
    gradient with respect to those powers: ``(asr, d asr / d powers)``.

    The forward pass keeps the layer terms and the backward pass runs
    through each layer's rate by hand. The gradient is shaped like
    ``powers`` and is a view of a stream-major, draw-minor array, the
    workspace's ``power_grad`` when there is a workspace.
    """
    com, grp, prv = terms = _layer_terms(powers, layout, noise)
    rc, rg, rp = map(_avg_rate, terms)
    asr, w_c, w_g = _sum_rate(rc, rg, rp, layout, smooth_temp)

    # the private denominator is the group denominator (one layer: the
    # common one) minus the own private power, and the group denominator
    # is the common one minus the own group power; one row per column
    rows = layout.user_rows
    first_prv = 1 + layout.n_groups if grp is not None else 1
    g_com, g_den = _avg_rate_vjp(w_c, *com)
    g_own_p, g_den_p = _avg_rate_vjp(np.ones_like(rp), *prv)
    shape = powers.shape[::-1]
    g_pw = np.empty(shape) if workspace is None else \
        workspace.array("power_grad", shape)
    g_pw[0] = g_com
    if grp is not None:
        g_own_g, g_den_g = _avg_rate_vjp(w_g, *grp)
        g_den_g = g_den_g + g_den_p
        g_den = g_den + g_den_g
        g_pw[1:first_prv] = g_den
        g_pw[layout.own_group_cols, rows] += g_own_g - g_den_g
    else:
        g_den = g_den + g_den_p
    g_pw[first_prv:] = g_den
    g_pw[first_prv + rows, rows] += g_own_p - g_den_p
    return asr, g_pw.T


def grad_wrt_precoder(p, ens: ChannelEnsemble, layout: StreamLayout,
                      smooth_temp: float = None,
                      workspace: ProjectionWorkspace = None):
    """Loss and its gradient with respect to the precoder view.

    ``p`` is a view or a precoder. Returns ``(loss, grad)`` with ``grad`` in
    view coordinates, so it can be fed straight into the update network or
    a first-order step. Closed form: :func:`_asr_and_power_grad`, then one
    matrix product maps d(loss)/d(powers) back to the precoder.

    A ``workspace`` built for ``ens.realizations`` supplies the projection's
    channel copy and its projection and power-gradient arrays, so a loop of
    calls allocates none of them again; without one they are fresh.
    ``grad`` is fresh either way.
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
    the projected candidate, ``grad_theta`` is flattened in parameter-vector
    order, and ``cand_view`` is the candidate in view coordinates.

    A ``workspace`` built for ``ens.realizations`` supplies the projection's
    channel copy and its projection and power-gradient arrays, as for
    :func:`grad_wrt_precoder`. What is returned is fresh either way.
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
        g_tr = (-(np.sum(g * raw) / (2.0 * scale)) * p_t) / (tr * tr)
        g = g * scale + (2.0 * g_tr) * raw

    # layer i maps acts[i] to acts[i + 1]; a hidden layer's ReLU passes
    # gradient where its output is positive
    parts = []
    for i in range(len(params.weights) - 1, -1, -1):
        parts.append(g)
        parts.append(np.outer(g, acts[i]).ravel())
        if i:
            g = (params.weights[i].T @ g) * (acts[i] > 0)
    return -asr, np.concatenate(parts[::-1]), cand


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def finite_diff_check(f, x0: np.ndarray, analytic: np.ndarray, step: float):
    """Central-difference check of a gradient vector.

    Returns ``(max_relerr, fd)``. The per-coordinate relative error uses a
    floor built from the largest gradient entry, so coordinates that are
    tiny compared to the overall gradient scale cannot dominate the score
    through pure roundoff.
    """
    x0 = np.asarray(x0, dtype=float)
    analytic = np.asarray(analytic, dtype=float)
    if x0.shape != analytic.shape:
        raise ValueError("analytic gradient shape does not match the point")
    fd = np.empty_like(x0)
    for i in range(x0.size):
        xp = x0.copy()
        xm = x0.copy()
        xp[i] += step
        xm[i] -= step
        fd[i] = (f(xp) - f(xm)) / (2.0 * step)
    gmax = max(np.max(np.abs(analytic)), np.max(np.abs(fd)), 0.0)
    den = np.maximum(np.abs(analytic), np.abs(fd)) + 1e-3 * gmax + 1e-12
    relerr = np.abs(analytic - fd) / den
    return float(np.max(relerr)), fd


# ---------------------------------------------------------------------------
# packaged verification battery
# ---------------------------------------------------------------------------

def _min_gap(x: np.ndarray) -> float:
    if x.size < 2:
        return np.inf
    s = np.sort(x)
    return float(s[1] - s[0])


def _tie_gaps_ok(v, ens, layout, gap=1e-3) -> bool:
    powers, _, _ = channel_project(ens.realizations, _columns(v, layout))
    rc, rg, _ = rates_from_powers(powers, layout, ens.noise_power)
    groups = [] if rg is None else [rg[m] for m in layout.member_rows]
    return not any(_min_gap(x) < gap for x in [rc, *groups])


def _random_instance(rng: RngStream, hierarchical: bool, p_t: float = 4.0):
    """Small random problem: sizes up to 4 antennas, 4 users, 2 groups,
    8 realizations."""
    n_tx = rng.integers(2, 5)
    if hierarchical:
        n_users = 2 * rng.integers(1, 3)       # even, so groups split evenly
        layout = StreamLayout.hierarchical(n_tx=n_tx, n_users=n_users,
                                           n_groups=2)
    else:
        layout = StreamLayout.one_layer(n_tx=n_tx, n_users=rng.integers(2, 5))
    n_draws = rng.integers(4, 9)
    model = IidCsitModel(n_tx=layout.n_tx, n_users=layout.n_users,
                         error_power=0.25)
    ens = model.draw(rng, p_t, n_draws)
    mat = gaussian_matrix(rng, layout.n_tx, layout.n_streams, 1.0)
    if layout.mode == "one_layer":
        mat[:, 1:1 + layout.n_groups] = 0.0
    mat *= np.sqrt(0.8 * p_t / np.sum(np.abs(mat) ** 2))
    return layout, ens, mat


def _random_net(rng: RngStream, layout: StreamLayout) -> MetaNetParams:
    """Small update network (one hidden layer of 8) for the layout."""
    params = init_meta_net(rng, view_length(layout), hidden=(8,))
    # the zero output layer would zero every hidden-layer gradient, so give
    # it small random weights for a meaningful check
    bound = 0.1 / np.sqrt(params.weights[-1].shape[1])
    params.weights[-1] = rng.uniform(-bound, bound, params.weights[-1].shape)
    params.biases[-1] = rng.uniform(-bound, bound, params.biases[-1].shape)
    return params


def gradcheck_suite(seed: int = 0, n_instances: int = 50,
                    smooth_temp: float = None,
                    precoder_tol: float = 1e-5, precoder_step: float = 1e-6,
                    theta_tol: float = 1e-4, theta_step: float = 1e-5,
                    max_tries: int = 64) -> dict:
    """Finite-difference battery over small random instances.

    Each instance draws random sizes, channels, a precoder, and a small
    update network, then checks both the precoder gradient and the
    network-parameter gradient against central differences. Single-layer
    and grouped modes alternate. Instances that land too close to a
    minimum tie or to the projection branch boundary are redrawn, since
    central differences straddle the kink there and the comparison would
    be meaningless rather than wrong.
    """
    if n_instances < 1:
        raise ValueError(f"n_instances must be >= 1, got {n_instances}")
    root = RngStream(seed)
    p_t = 4.0
    report = {"precoder": [], "theta": [],
              "precoder_tol": precoder_tol, "theta_tol": theta_tol}

    for inst in range(n_instances):
        hier = inst % 2 == 1
        for attempt in range(max_tries):
            rng = root.child(inst, attempt)
            layout, ens, mat = _random_instance(rng, hier, p_t)
            v0 = precoder_to_view(mat, layout)
            if smooth_temp is None and not _tie_gaps_ok(v0, ens, layout):
                continue
            _, g0 = grad_wrt_precoder(mat, ens, layout, smooth_temp)

            params = _random_net(rng, layout)
            cand, tr, _ = _radial(v0 + mlp_forward(params, g0), p_t)
            # branch-boundary guard on the unprojected power: differences
            # must not straddle the point where the projection kicks in
            if abs(tr - p_t) / p_t < 1e-3:
                continue
            if smooth_temp is None and not _tie_gaps_ok(cand, ens, layout):
                continue

            err_p, _ = finite_diff_check(
                lambda x: loss_from_view(x, ens, layout, smooth_temp),
                v0, g0, precoder_step)
            report["precoder"].append(err_p)

            _, gt, _ = grad_wrt_theta(params, v0, g0, ens, layout, p_t,
                                      smooth_temp)

            def f_theta(vec, _d=params.dims, _p0=v0, _g0=g0,
                        _e=ens, _l=layout):
                trial = MetaNetParams.from_vector(vec, _d)
                return loss_from_view(candidate_view(trial, _p0, _g0, p_t),
                                      _e, _l, smooth_temp)

            err_t, _ = finite_diff_check(f_theta, params.to_vector(), gt,
                                         theta_step)
            report["theta"].append(err_t)
            break
        else:
            raise RuntimeError("could not draw a well-conditioned instance")

    report["n_instances"] = n_instances
    report["precoder_max_relerr"] = float(np.max(report["precoder"]))
    report["theta_max_relerr"] = float(np.max(report["theta"]))
    report["passed"] = bool(
        report["precoder_max_relerr"] <= precoder_tol
        and report["theta_max_relerr"] <= theta_tol)
    return report
