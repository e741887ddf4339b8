"""Reference optimizers the network-driven method is measured against.

* Direct first-order search: Adam on the precoder entries themselves,
  gradient recomputed every iteration, power projection after every step.
  Same objective and Adam constants as the network-driven run, and the
  very same start point, scoring and best-candidate record
  (``metaopt._start``), so any gap between them is the method and not the
  plumbing. A run projects on one workspace
  (:class:`rsmeta.linalg.ProjectionWorkspace`) built for its ensemble, so
  its time goes to arithmetic, not to copying the channels and faulting in
  fresh arrays on every iteration.

* Fixed-direction beamforming with an exhaustive power-split search:
  column directions are built once from second-order statistics and the
  channel estimate, and only the power partition across layers is searched
  on a lattice. This is the cheap statistics-only approach for the grouped
  scenario; it needs no per-realization gradients at all.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .adam import AdamState, adam_step
from .channel import ChannelEnsemble, OneRingModel
from .gradients import _batch_asr, grad_wrt_precoder, project_view, \
    view_length
from .layout import StreamLayout
from .linalg import ProjectionWorkspace, channel_project, herm_eig, \
    svd_dominant
from .metaopt import RunResult, _start
from .rates import PrecoderMatrix

__all__ = ["PowerSplit", "lattice_size", "power_split_grid",
           "run_direct_adam", "FixedDirectionResult", "run_fixed_direction"]

# bytes of split-scaled powers the fixed-direction search scores at once
_CHUNK_BYTES = 1 << 20

# ---------------------------------------------------------------------------
# direct Adam on the precoder
# ---------------------------------------------------------------------------

def run_direct_adam(layout: StreamLayout, ens: ChannelEnsemble, p_t: float,
                    n_iters: int = 2000, lr: float = 0.02,
                    splits: tuple = None,
                    smooth_temp: float = None) -> RunResult:
    """Adam directly on the precoder view, projected after every step.

    The view goes into the gradient as it is, and every gradient and
    rescoring of the run fills one projection workspace built for ``ens``:
    the channel copy is made once, and no projection or power-gradient
    array is allocated again on each iteration.
    ``smooth_temp`` must be None (the hard minimum) or positive.
    """
    if n_iters < 1:
        raise ValueError(f"n_iters must be >= 1, got {n_iters}")
    workspace = ProjectionWorkspace(ens.realizations)
    record, v, g = _start(layout, ens, p_t, splits, smooth_temp, workspace)
    opt = AdamState.zeros(view_length(layout))
    for _ in range(n_iters):
        v = project_view(v + adam_step(opt, g, lr), p_t)
        loss, g = grad_wrt_precoder(v, ens, layout, smooth_temp, workspace)
        record.offer(v, loss)
    return record.result()


# ---------------------------------------------------------------------------
# fixed directions with exhaustive power-split search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerSplit:
    """Fractions of the power budget per layer; private splits per user."""

    common: float
    group: float

    @property
    def private(self) -> float:
        # clamp: on lattice points with common + group == 1 the float
        # remainder can land a few ulp below zero
        return max(0.0, 1.0 - self.common - self.group)

    def __post_init__(self):
        if self.common < -1e-12 or self.group < -1e-12 \
                or self.common + self.group > 1.0 + 1e-12:
            raise ValueError(f"invalid split ({self.common}, {self.group})")


def lattice_size(step: float) -> int:
    """Lattice intervals per unit of power, ``1 / step``; raises ValueError
    unless ``step`` is a positive number that divides 1 evenly."""
    n = round(1.0 / step) if step > 0 else 0
    if n < 1 or abs(n * step - 1.0) > 1e-9:
        raise ValueError(f"step must divide 1 evenly, got {step}")
    return n


def power_split_grid(step: float = 0.05, with_group: bool = True):
    """All lattice splits with the given step, in canonical order.

    Canonical order is ascending common fraction, then ascending group
    fraction; exhaustive searches keep the first maximizer, so ties resolve
    to the smallest split in this order. Fractions are built on an integer
    lattice so the step never accumulates rounding.
    """
    n = lattice_size(step)
    grid = []
    for i in range(n + 1):
        j_max = (n - i) if with_group else 0
        for j in range(j_max + 1):
            grid.append(PowerSplit(common=i / n, group=j / n))
    return grid


@dataclass
class FixedDirectionResult:
    best_asr: float
    best_precoder: PrecoderMatrix
    best_split: PowerSplit
    wall_time_s: float
    n_evaluated: int


def _stream_powers(split: PowerSplit, layout: StreamLayout,
                   p_t: float) -> np.ndarray:
    """Per-column powers of a split: each layer's share divided equally."""
    w = np.empty(layout.n_streams)
    w[0] = split.common * p_t
    w[1:1 + layout.n_groups] = split.group * p_t / layout.n_groups
    w[1 + layout.n_groups:] = split.private * p_t / layout.n_users
    return w


def _fixed_directions(layout: StreamLayout, est: np.ndarray,
                      model: OneRingModel, p_t: float,
                      rank: int = None) -> np.ndarray:
    """Unit-norm columns, (n_tx, n_streams), of the fixed-direction search.

    The global common column lies along the dominant singular direction of
    the estimate ``est``; each group column along the top eigenvector of
    that group's antenna correlation; private columns come from
    regularized zero-forcing inside each group on a rank-limited effective
    channel (the estimate compressed onto the top ``rank`` eigenvectors of
    the group correlation, ``ceil(n_tx / (2 G))`` of them by default).
    """
    n_grp = layout.n_groups
    if rank is None:
        rank = int(np.ceil(layout.n_tx / (2 * n_grp)))
    if not 1 <= rank <= layout.n_tx:
        raise ValueError(f"rank must lie in [1, {layout.n_tx}], got {rank}")
    if not np.any(est):
        raise ValueError("cannot build directions from a zero estimate")
    dirs = np.zeros((layout.n_tx, layout.n_streams), dtype=complex)
    dirs[:, layout.col_common] = svd_dominant(est)
    reg = layout.n_users / p_t
    for g in range(n_grp):
        w, vecs = herm_eig(model.correlation(g))
        dirs[:, layout.col_group(g)] = vecs[:, 0]
        members = list(layout.group_members(g))
        u_r = vecs[:, :rank]                       # (n_tx, r)
        f = u_r.conj().T @ est[:, members]         # (r, |members|)
        m = np.linalg.solve(f @ f.conj().T + reg * np.eye(rank), f)
        for col, k in enumerate(members):
            d = u_r @ m[:, col]
            nrm = np.linalg.norm(d)
            if nrm < 1e-12:
                raise ValueError(
                    f"zero-forcing direction degenerated for user {k}")
            dirs[:, layout.col_private(k)] = d / nrm
    return dirs


def run_fixed_direction(layout: StreamLayout, ens: ChannelEnsemble,
                        model: OneRingModel, p_t: float, step: float = 0.05,
                        rank: int = None) -> FixedDirectionResult:
    """Statistics-based directions plus exhaustive power-split search.

    The directions are built once from the estimate and the group
    correlations (:func:`_fixed_directions`), and their |h^H p|^2 gains are
    projected once. Every lattice power split (:func:`power_split_grid`)
    then only rescales those gains per column. The splits are scored in
    chunks of at most 1 MiB of scaled powers, each through one batched
    call of the shared rate code whose every slice has the bits of a
    one-split call. The first maximizer in canonical order wins, as in a
    loop keeping a strictly better split, so a split whose rate is NaN
    never wins; ``n_evaluated`` is the lattice size.
    """
    if layout.mode != "hierarchical":
        raise ValueError("fixed-direction search needs a hierarchical layout")
    if layout.n_groups != model.n_groups:
        raise ValueError("model ring count does not match layout groups")
    t0 = time.perf_counter()
    dirs = _fixed_directions(layout, ens.estimate, model, p_t, rank)

    # unit-direction gains once, one stream-major row per column; a chunk
    # of splits rescales the rows into one (chunk, n_streams, n_users,
    # n_draws) array, scored by one batched rate call
    gain = channel_project(ens.realizations, dirs)[0].T
    splits = power_split_grid(step, with_group=True)
    w = np.array([_stream_powers(s, layout, p_t) for s in splits])
    chunk = max(1, _CHUNK_BYTES // gain.nbytes)
    powers = np.empty((min(chunk, len(splits)),) + gain.shape)
    asr = np.empty(len(splits))
    for lo in range(0, len(splits), chunk):
        w_part = w[lo:lo + chunk, :, None, None]
        part = powers[:len(w_part)]
        np.multiply(gain, w_part, out=part)
        asr[lo:lo + len(w_part)] = _batch_asr(np.swapaxes(part, -1, -3),
                                              layout, ens.noise_power)
    # the first maximizer in canonical order; a NaN split never wins
    best = int(np.argmax(np.where(np.isnan(asr), -np.inf, asr)))
    if not asr[best] > -np.inf:
        raise ValueError("no lattice split has a rate that is not NaN")
    wall = time.perf_counter() - t0

    mat = dirs * np.sqrt(w[best])[None, :]
    return FixedDirectionResult(
        best_asr=float(asr[best]),
        best_precoder=PrecoderMatrix(matrix=mat, layout=layout),
        best_split=splits[best], wall_time_s=wall, n_evaluated=len(splits))
