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

A run checks its iteration count and its rate before any work
(:func:`check_iters`, :func:`rsmeta.adam.check_lr`). It then builds each
of its objects once, from sizes it knows at its start: the projection
workspace from the ensemble and the number of columns, the update
network from its θ and layer sizes, a second network on a fresh array for
the θ-gradient, and the Adam state from the parameter count.

Direct Adam (:mod:`rsmeta.baselines`) shares the start point and the
record of the best candidate (:func:`_start`, :class:`_Record`), so the
two Adam optimizers differ only in what Adam steps. Both step views
(:mod:`rsmeta.gradients`) and hand them to the gradients as they are; a
run builds a precoder matrix only for what it returns.
"""
from __future__ import annotations

import numbers
import time
from dataclasses import dataclass

import numpy as np

from .adam import AdamState, adam_step, check_lr
from .channel import ChannelEnsemble
from .gradients import (grad_wrt_precoder, grad_wrt_theta, precoder_to_view,
                        view_length, view_to_precoder)
from .layout import StreamLayout
from .linalg import ProjectionWorkspace, RngStream, svd_dominant
from .network import MetaNetParams, init_meta_net
from .rates import PrecoderMatrix

__all__ = ["MetaOptConfig", "RunResult", "check_iters", "start_splits",
           "init_precoder", "run_meta_opt"]


@dataclass
class MetaOptConfig:
    """Knobs for one optimization run.

    ``lr`` is the Adam rate on network parameters; the precoder itself is
    never stepped directly. The objective is the averaged sum rate with
    hard minima, trained with their lowest-index subgradient.
    """

    n_iters: int = 500
    lr: float = 1e-3
    hidden: tuple = (50, 50)
    seed: int = 0


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


def check_iters(n, key: str = "n_iters"):
    """``n`` if it is an integer >= 1 and not a bool; raises ValueError
    otherwise, naming ``key``. Both Adam runs check their iteration count
    here before any work, and the config check runs it on ``meta.iters``
    and ``direct.iters``."""
    if not (isinstance(n, numbers.Integral) and not isinstance(n, bool)
            and n >= 1):
        raise ValueError(f"{key} must be an integer >= 1, got {n!r}")
    return n


def start_splits(layout: StreamLayout) -> tuple:
    """The start point's power fractions ``(common, group, private)``:
    ``(0.9, 0, 0.1)`` without groups, ``(0.45, 0.45, 0.10)`` with."""
    return (0.45, 0.45, 0.10) if layout.n_groups else (0.9, 0.0, 0.1)


def init_precoder(layout: StreamLayout, estimate: np.ndarray,
                  p_t: float) -> PrecoderMatrix:
    """Matched-direction starting point from the channel estimate.

    The common column points along the dominant left singular direction of
    the whole estimate; each group column, if any, along the
    dominant direction of that group's columns; each private column along
    the user's own estimate. The power fractions of :func:`start_splits`
    share ``p_t``, the group share splitting equally across groups and the
    private share equally across users.
    """
    est = np.asarray(estimate, dtype=complex)
    if est.shape != (layout.n_tx, layout.n_users):
        raise ValueError(f"estimate shape {est.shape} does not match layout")
    if not p_t > 0:
        raise ValueError(f"p_t must be positive, got {p_t}")
    q_c, q_g, q_p = start_splits(layout)
    if not np.any(est):
        raise ValueError("cannot build a starting precoder from a zero estimate")
    mat = np.zeros((layout.n_tx, layout.n_streams), dtype=complex)
    mat[:, layout.col_common] = svd_dominant(est) * np.sqrt(q_c * p_t)
    for g, members in enumerate(layout.member_rows):
        mat[:, layout.col_group(g)] = svd_dominant(est[:, members]) \
            * np.sqrt(q_g * p_t / layout.n_groups)
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

    A candidate's rate is its training loss negated, so no candidate is
    projected twice. The first candidate offered is the start point.
    """

    def __init__(self, layout: StreamLayout):
        self.t0 = time.perf_counter()
        self.layout = layout
        self.history = []
        self.best_asr = self.best_view = None

    def offer(self, view: np.ndarray, loss: float) -> None:
        """Record a candidate whose training loss is ``loss``. A new best
        view is copied, as the run may write the next candidate into the
        same array, and no other view is."""
        asr = -loss
        if not self.history or asr > self.best_asr:
            self.best_asr, self.best_view = asr, view.copy()
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
           workspace: ProjectionWorkspace):
    """Matched start point shared by both Adam optimizers.

    Returns ``(record, view, grad)``: a fresh :class:`_Record` holding the
    start as its first candidate, the start's view, and the precoder
    gradient taken at that view, projected on ``workspace``, the run's
    one.
    """
    record = _Record(layout)
    p0 = init_precoder(layout, ens.estimate, p_t)
    view = precoder_to_view(p0, layout)
    loss, grad = grad_wrt_precoder(view, ens, layout, workspace=workspace)
    record.offer(view, loss)
    return record, view, grad


def run_meta_opt(layout: StreamLayout, ens: ChannelEnsemble, p_t: float,
                 config: MetaOptConfig = None) -> RunResult:
    """Optimize one precoder for one channel estimate.

    The candidate at iteration i is the projected network proposal under the
    current ``theta``; with the zero-initialized output layer the first
    candidate is the start point. The returned ``params`` are a network
    built on a copy of the trained ``theta``.
    """
    cfg = config or MetaOptConfig()
    check_iters(cfg.n_iters)
    lr = check_lr(cfg.lr)
    workspace = ProjectionWorkspace(ens.realizations, layout.n_streams)
    record, p0_view, g0 = _start(layout, ens, p_t, workspace)

    params = init_meta_net(RngStream(cfg.seed), view_length(layout),
                           cfg.hidden)
    opt = AdamState(params.n_params)
    # a network of the same dims holds the θ-gradient: its array and
    # layer views are built once for the run
    grad = MetaNetParams(np.empty(params.n_params), params.dims)

    for _ in range(cfg.n_iters):
        loss_i, g_theta, cand = grad_wrt_theta(
            params, p0_view, g0, ens, layout, p_t, workspace=workspace,
            out=grad)
        record.offer(cand, loss_i)
        adam_step(opt, g_theta, lr, params.theta)

    return record.result(MetaNetParams(params.theta.copy(), params.dims))
