"""Finite-difference verification of the two hand-written gradients.

:func:`finite_diff_check` compares a gradient vector with central
differences of a scalar function. :func:`gradcheck_suite` runs it over
small random instances for both :func:`rsmeta.gradients.grad_wrt_precoder`
and :func:`rsmeta.gradients.grad_wrt_theta`, against central differences of
the plain evaluation path :func:`rsmeta.gradients.loss_from_view`, with
instance guards against minimum ties and the projection branch boundary,
the two places the objective is only piecewise smooth. ``rsmeta
gradcheck`` runs the suite from the command line.
"""
from __future__ import annotations

import numpy as np

from .channel import IidCsitModel
from .gradients import (_columns, _radial, candidate_view, grad_wrt_precoder,
                        grad_wrt_theta, loss_from_view, precoder_to_view,
                        rates_from_powers, view_length)
from .layout import StreamLayout
from .linalg import RngStream, channel_project, gaussian_matrix
from .network import MetaNetParams, init_meta_net, mlp_forward

__all__ = ["finite_diff_check", "gradcheck_suite"]

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
    params.weights[-1][...] = rng.uniform(-bound, bound, params.weights[-1].shape)
    params.biases[-1][...] = rng.uniform(-bound, bound, params.biases[-1].shape)
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
