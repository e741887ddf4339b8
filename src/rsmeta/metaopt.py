"""Training-free network-driven precoder optimization.

One run owns one channel estimate: the update network starts from scratch,
proposes a precoder update from the frozen start-point gradient, and its
flat parameter vector ``theta`` (not the precoder) takes Adam steps in
place against the averaged-rate objective. The layers are views of
``theta``, so the loop converts nothing. The start-point gradient is
computed once, so each iteration costs one forward and one hand-written
backward pass through the layered rates, the channel and power
projections and the network, every projection filling the run's one
:class:`rsmeta.linalg.ProjectionWorkspace`. The best candidate ever
evaluated, the start point included, is what a run returns.

Direct Adam (:mod:`rsmeta.baselines`) shares the start point and the
record of the best candidate (:func:`_start`, :class:`_Record`), so the
two Adam optimizers differ only in what Adam steps. Both step views
(:mod:`rsmeta.gradients`) and hand them to the gradients as they are; a
run builds a precoder matrix only for what it returns.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .adam import AdamState, adam_step
from .channel import ChannelEnsemble
from .gradients import (grad_wrt_precoder, grad_wrt_theta, loss_from_view,
                        precoder_to_view, view_length, view_to_precoder)
from .layout import StreamLayout
from .linalg import ProjectionWorkspace, RngStream, svd_dominant
from .network import MetaNetParams, init_meta_net
from .rates import PrecoderMatrix

__all__ = ["MetaOptConfig", "RunResult", "start_splits", "init_precoder",
           "run_meta_opt"]


@dataclass
class MetaOptConfig:
    """Knobs for one optimization run.

    ``lr`` is the Adam rate on network parameters; the precoder itself is
    never stepped directly. ``smooth_temp`` switches the minima inside the
    objective to a smooth log-sum-exp surrogate for training gradients
    (reported rates always use the hard minimum); None keeps the hard
    minimum with its lowest-index subgradient everywhere. Any other value
    must be positive.
    """

    n_iters: int = 500
    lr: float = 1e-3
    hidden: tuple = (50, 50)
    seed: int = 0
    smooth_temp: float = None
    splits: tuple = None


@dataclass
class RunResult:
    """Outcome of one optimizer run on one channel estimate."""

    best_asr: float
    best_precoder: PrecoderMatrix
    start_asr: float
    asr_history: np.ndarray
    wall_time_s: float
    n_iters: int
    params: MetaNetParams = None


def start_splits(layout: StreamLayout, splits: tuple = None) -> tuple:
    """The start point's power fractions ``(common, group, private)``.

    ``None`` gives the defaults; anything else must be three nonnegative
    fractions summing to at most one, with no group share in one-layer
    mode. Raises ValueError otherwise.
    """
    if splits is None:
        return (0.9, 0.0, 0.1) if layout.mode == "one_layer" \
            else (0.45, 0.45, 0.10)
    q = tuple(float(s) for s in splits)
    if len(q) != 3:
        raise ValueError(f"splits must be three fractions, got {splits}")
    if not (min(q) >= 0 and sum(q) <= 1.0 + 1e-12):
        raise ValueError(f"splits must be nonnegative with sum <= 1, "
                         f"got {splits}")
    if layout.mode == "one_layer" and q[1] != 0.0:
        raise ValueError("one-layer mode cannot put power on group streams")
    return q


def init_precoder(layout: StreamLayout, estimate: np.ndarray, p_t: float,
                  splits: tuple = None) -> PrecoderMatrix:
    """Matched-direction starting point from the channel estimate.

    The common column points along the dominant left singular direction of
    the whole estimate; each group column (hierarchical only) along the
    dominant direction of that group's columns; each private column along
    the user's own estimate. Power fractions ``splits = (common, group,
    private)`` share ``p_t``, the group share splitting equally across
    groups and the private share equally across users; see
    :func:`start_splits`.
    """
    est = np.asarray(estimate, dtype=complex)
    if est.shape != (layout.n_tx, layout.n_users):
        raise ValueError(f"estimate shape {est.shape} does not match layout")
    if not p_t > 0:
        raise ValueError(f"p_t must be positive, got {p_t}")
    q_c, q_g, q_p = start_splits(layout, splits)
    if not np.any(est):
        raise ValueError("cannot build a starting precoder from a zero estimate")
    mat = np.zeros((layout.n_tx, layout.n_streams), dtype=complex)
    mat[:, layout.col_common] = svd_dominant(est) * np.sqrt(q_c * p_t)
    if layout.mode == "hierarchical" and q_g > 0:
        per_group = q_g * p_t / layout.n_groups
        for g in range(layout.n_groups):
            sub = est[:, list(layout.group_members(g))]
            mat[:, layout.col_group(g)] = svd_dominant(sub) * np.sqrt(per_group)
    per_user = q_p * p_t / layout.n_users
    for k in range(layout.n_users):
        hk = est[:, k]
        nrm = np.linalg.norm(hk)
        if nrm == 0:
            raise ValueError(f"user {k} has a zero channel estimate")
        mat[:, layout.col_private(k)] = (hk / nrm) * np.sqrt(per_user)
    return PrecoderMatrix(matrix=mat, layout=layout)


class _Record:
    """Clock, rate history and best candidate of one Adam run.

    Candidates are scored with the hard minimum: the training loss when
    training uses it too, a fresh evaluation on the run's ``workspace``
    under a smooth surrogate. The first candidate offered is the start
    point.
    """

    def __init__(self, layout: StreamLayout, ens: ChannelEnsemble,
                 smooth_temp: float, workspace: ProjectionWorkspace):
        self.t0 = time.perf_counter()
        self.layout, self.ens, self.smooth_temp = layout, ens, smooth_temp
        self.workspace = workspace
        self.history = []
        self.best_asr = self.best_view = None

    def offer(self, view: np.ndarray, loss: float) -> None:
        """Score a candidate whose training loss is ``loss``."""
        if self.smooth_temp is None:
            asr = -loss
        else:
            asr = -loss_from_view(view, self.ens, self.layout, None,
                                  self.workspace)
        if not self.history or asr > self.best_asr:
            self.best_asr, self.best_view = asr, view
        self.history.append(asr)

    def result(self, params: MetaNetParams = None) -> RunResult:
        wall = time.perf_counter() - self.t0
        best = view_to_precoder(self.best_view, self.layout)
        return RunResult(
            best_asr=float(self.best_asr),
            best_precoder=PrecoderMatrix(matrix=best, layout=self.layout),
            start_asr=float(self.history[0]),
            asr_history=np.asarray(self.history),
            wall_time_s=wall, n_iters=len(self.history) - 1, params=params)


def _start(layout: StreamLayout, ens: ChannelEnsemble, p_t: float,
           splits: tuple, smooth_temp: float,
           workspace: ProjectionWorkspace):
    """Matched start point shared by both Adam optimizers.

    Returns ``(record, view, grad)``: a fresh :class:`_Record` holding the
    start as its first candidate, the start's view, and the precoder
    gradient taken at that view. The start and the record project on
    ``workspace``, the run's one. The start gradient raises ValueError
    unless ``smooth_temp`` is None or positive.
    """
    record = _Record(layout, ens, smooth_temp, workspace)
    p0 = init_precoder(layout, ens.estimate, p_t, splits)
    view = precoder_to_view(p0, layout)
    loss, grad = grad_wrt_precoder(view, ens, layout, smooth_temp, workspace)
    record.offer(view, loss)
    return record, view, grad


def run_meta_opt(layout: StreamLayout, ens: ChannelEnsemble, p_t: float,
                 config: MetaOptConfig = None) -> RunResult:
    """Optimize one precoder for one channel estimate.

    The candidate at iteration i is the projected network proposal under the
    current ``theta``; with the zero-initialized output layer the first
    candidate is the start point. Reported rates always use the hard
    minimum even when training runs on the smooth surrogate. The returned
    ``params`` are a copy of the trained network.
    """
    cfg = config or MetaOptConfig()
    if cfg.n_iters < 1:
        raise ValueError(f"n_iters must be >= 1, got {cfg.n_iters}")
    workspace = ProjectionWorkspace(ens.realizations)
    record, p0_view, g0 = _start(layout, ens, p_t, cfg.splits,
                                 cfg.smooth_temp, workspace)

    params = init_meta_net(RngStream(cfg.seed), view_length(layout),
                           cfg.hidden)
    opt = AdamState.zeros(params.n_params)

    for _ in range(cfg.n_iters):
        loss_i, g_theta, cand = grad_wrt_theta(
            params, p0_view, g0, ens, layout, p_t, cfg.smooth_temp,
            workspace)
        record.offer(cand, loss_i)
        params.theta += adam_step(opt, g_theta, cfg.lr)

    return record.result(MetaNetParams.from_vector(params.theta, params.dims))
