"""Finite-difference verification of the two hand-written gradients.

:func:`finite_diff_check` compares a gradient vector with central
differences of a scalar function. :func:`gradcheck_suite` runs it over
small random instances for both :func:`rsmeta.gradients.grad_wrt_precoder`
and :func:`rsmeta.gradients.grad_wrt_theta`, against central differences of
the plain evaluation path :func:`rsmeta.gradients.loss_from_view`, with
instance guards against minimum ties and the projection branch boundary,
the two kinds of kink in the objective. The tie guard reads the averaged
rates of the rate core's own tail, the arithmetic the loss runs.
``rsmeta gradcheck`` runs the suite from the command line. Its gate,
criterion 1, is module constants that no caller can loosen:
:data:`PRECODER_TOL`, :data:`THETA_TOL`, their difference steps and
:data:`MAX_TRIES`.
"""
from __future__ import annotations

import numpy as np

from .channel import IidCsitModel
from .gradients import (_columns, _layer_terms, _radial,
                        _rates_from_terms, candidate_view, grad_wrt_precoder,
                        grad_wrt_theta, loss_from_view, precoder_to_view,
                        view_length)
from .layout import StreamLayout
from .linalg import RngStream, channel_project, gaussian_matrix
from .network import MetaNetParams, init_meta_net, mlp_forward

__all__ = ["finite_diff_check", "gradcheck_suite"]

PRECODER_TOL = 1e-5  # largest relative error of the precoder gradient
PRECODER_STEP = 1e-6  # its central-difference step
THETA_TOL = 1e-4  # largest relative error of the network gradient
THETA_STEP = 1e-5  # its central-difference step
MAX_TRIES = 64  # draws per instance before the battery gives up
P_T = 4.0  # power budget of every instance
TIE_GAP = 1e-3  # smallest gap a minimum's two lowest rates may leave

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


def _tie_gaps_ok(v, ens, layout) -> bool:
    """Whether every hard minimum of the loss at ``v``, the common one and
    each group's, leaves at least :data:`TIE_GAP` between its two lowest
    averaged rates, read from the rate core's own stacked rates."""
    powers, _, _ = channel_project(ens.realizations, _columns(v, layout))
    rates = _rates_from_terms(*_layer_terms(powers, layout))
    groups = [rates[1, m] for m in layout.member_rows]
    return not any(_min_gap(x) < TIE_GAP for x in [rates[0], *groups])


def _random_instance(rng: RngStream, hierarchical: bool):
    """Small random problem: sizes up to 4 antennas, 4 users, 2 groups,
    8 realizations, with the budget :data:`P_T`."""
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
    ens = model.draw(rng, P_T, n_draws)
    mat = gaussian_matrix(rng, layout.n_tx, layout.n_streams, 1.0)
    mat *= np.sqrt(0.8 * P_T / np.sum(np.abs(mat) ** 2))
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


def gradcheck_suite(seed: int = 0, n_instances: int = 50) -> dict:
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
    report = {"precoder": [], "theta": [],
              "precoder_tol": PRECODER_TOL, "theta_tol": THETA_TOL}

    for inst in range(n_instances):
        hier = inst % 2 == 1
        for attempt in range(MAX_TRIES):
            rng = root.child(inst, attempt)
            layout, ens, mat = _random_instance(rng, hier)
            v0 = precoder_to_view(mat, layout)
            if not _tie_gaps_ok(v0, ens, layout):
                continue
            _, g0 = grad_wrt_precoder(mat, ens, layout)

            params = _random_net(rng, layout)
            cand, tr, _ = _radial(v0 + mlp_forward(params, g0), P_T)
            # branch-boundary guard on the unprojected power: differences
            # must not straddle the point where the projection kicks in
            if abs(tr - P_T) / P_T < 1e-3:
                continue
            if not _tie_gaps_ok(cand, ens, layout):
                continue

            err_p, _ = finite_diff_check(
                lambda x: loss_from_view(x, ens, layout), v0, g0,
                PRECODER_STEP)
            report["precoder"].append(err_p)

            _, gt, _ = grad_wrt_theta(params, v0, g0, ens, layout, P_T)

            def f_theta(vec, _d=params.dims, _p0=v0, _g0=g0,
                        _e=ens, _l=layout):
                trial = MetaNetParams(vec, _d)
                return loss_from_view(candidate_view(trial, _p0, _g0, P_T),
                                      _e, _l)

            err_t, _ = finite_diff_check(f_theta, params.theta, gt,
                                         THETA_STEP)
            report["theta"].append(err_t)
            break
        else:
            raise RuntimeError("could not draw a well-conditioned instance")

    report["n_instances"] = n_instances
    report["precoder_max_relerr"] = float(np.max(report["precoder"]))
    report["theta_max_relerr"] = float(np.max(report["theta"]))
    report["passed"] = bool(
        report["precoder_max_relerr"] <= PRECODER_TOL
        and report["theta_max_relerr"] <= THETA_TOL)
    return report
