"""Reference optimizers the network-driven method is measured against.

* Direct first-order search: Adam on the precoder entries themselves,
  gradient recomputed every iteration, power projection after every step.
  Same objective and Adam constants as the network-driven run, and the
  very same start point, scoring and best-candidate record
  (``metaopt._start``), so any gap between them is the method and not the
  plumbing. A run projects on one workspace
  (:class:`rsmeta.linalg.ProjectionWorkspace`) built for its ensemble,
  through the views the workspace keeps, and Adam and the power projection
  step its one view in place, so its time goes to arithmetic, not to
  copying the channels, reshaping and faulting in arrays on every
  iteration.

* Fixed-direction beamforming with an exhaustive power-split search:
  column directions are built once from second-order statistics and the
  channel estimate, and only the power partition across layers is searched
  on a lattice. This is the cheap statistics-only approach for the grouped
  scenario; it needs no per-realization gradients at all. The directions'
  gains are split once into six (n_users, n_draws) rows, each user's own
  gains and its interference summed up by the same helper as the training
  loss's, so every split's numerators and denominators are one 6 x 6
  matrix times those rows, whatever the stream count, no denominator is a
  difference, and past its terms it runs the rate core's tail, the minima
  and sums once per search.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .adam import AdamState, adam_step, check_lr
from .channel import ChannelEnsemble, OneRingModel
from .gradients import _asr_of_rates, _own_and_others, _rates_from_terms, \
    _Split, grad_wrt_precoder, project_view, view_length
from .layout import StreamLayout
from .linalg import ProjectionWorkspace, channel_project, svd_dominant
from .metaopt import RunResult, _start, check_iters
from .rates import PrecoderMatrix

__all__ = ["PowerSplit", "lattice_size", "run_direct_adam",
           "FixedDirectionResult", "run_fixed_direction"]

# bytes of stacked layer terms the fixed-direction search scores at once
_CHUNK_BYTES = 1 << 20

# ---------------------------------------------------------------------------
# direct Adam on the precoder
# ---------------------------------------------------------------------------

def run_direct_adam(layout: StreamLayout, ens: ChannelEnsemble, p_t: float,
                    n_iters: int = 2000, lr: float = 0.02) -> RunResult:
    """Adam directly on the precoder view, projected after every step.

    ``n_iters`` and ``lr`` are checked (:func:`rsmeta.metaopt.check_iters`,
    :func:`rsmeta.adam.check_lr`) before any work. The run keeps one view:
    Adam steps it and the power projection scales it, both in place. It
    goes into the gradient as it is, and every gradient of the run fills
    one projection workspace built for ``ens`` and the layout's columns: the
    channel copy and the projection's arrays are made once, and no
    projection or power-gradient array is allocated again on each
    iteration.
    """
    check_iters(n_iters)
    lr = check_lr(lr)
    workspace = ProjectionWorkspace(ens.realizations, layout.n_streams)
    record, v, g = _start(layout, ens, p_t, workspace)
    opt = AdamState(view_length(layout))
    for _ in range(n_iters):
        adam_step(opt, g, lr, v)
        project_view(v, p_t, out=v)
        loss, g = grad_wrt_precoder(v, ens, layout, workspace=workspace)
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
    unless ``step`` is a positive number that divides 1 evenly, into a
    lattice whose (n_splits, 6, 6) float64 coefficients numpy can create:
    no more than ``np.iinfo(np.intp).max`` bytes."""
    inv = 1.0 / step if step > 0 else 0.0
    n = round(inv) if inv < np.inf else 0
    if n < 1 or abs(n * step - 1.0) > 1e-9:
        raise ValueError(f"step must divide 1 evenly, got {step}")
    if (n + 1) * (n + 2) // 2 * 36 * 8 > np.iinfo(np.intp).max:
        raise ValueError(f"step {step} gives a lattice too large for any "
                         f"array")
    return n


@dataclass
class FixedDirectionResult:
    best_asr: float
    best_precoder: PrecoderMatrix
    best_split: PowerSplit
    wall_time_s: float
    n_evaluated: int


def _lattice_powers(n: int, layout: StreamLayout, p_t: float):
    """The power-split lattice with ``n`` intervals per unit as arrays:
    ``(i, j, w)``, the integer common and group steps of every split in
    canonical order and the (n_splits, 3) power of each common, group and
    private column, each layer's share of the split ``(i / n, j / n)``
    divided equally. Canonical order is ascending common fraction, then
    ascending group fraction; the search keeps the first maximizer, so a
    tie resolves to the smallest split in this order."""
    counts = np.arange(n + 1, 0, -1)         # splits per common step
    i = np.repeat(np.arange(n + 1), counts)
    j = np.arange(len(i)) - np.repeat(np.cumsum(counts) - counts, counts)
    common, group = i / n, j / n
    private = np.maximum(0.0, (1.0 - common) - group)
    w = np.empty((len(i), 3))
    w[:, 0] = common * p_t
    w[:, 1] = group * p_t / layout.n_groups
    w[:, 2] = private * p_t / layout.n_users
    return i, j, w


def _fixed_directions(layout: StreamLayout, est: np.ndarray,
                      model: OneRingModel, p_t: float) -> np.ndarray:
    """Unit-norm columns, (n_tx, n_streams), of the fixed-direction search.

    The global common column lies along the dominant singular direction of
    the estimate ``est``; each group column along the top eigenvector of
    that group's antenna correlation; private columns come from
    regularized zero-forcing inside each group on a rank-limited effective
    channel (the estimate compressed onto the top ``ceil(n_tx / (2 G))``
    eigenvectors of the group correlation, a count in ``[1, n_tx]``).
    The eigenvectors are the model's kept decomposition
    (:meth:`rsmeta.channel.OneRingModel.eigenbasis`), so a model's
    searches decompose nothing.
    """
    n_grp = layout.n_groups
    rank = int(np.ceil(layout.n_tx / (2 * n_grp)))
    if not np.any(est):
        raise ValueError("cannot build directions from a zero estimate")
    dirs = np.zeros((layout.n_tx, layout.n_streams), dtype=complex)
    dirs[:, layout.col_common] = svd_dominant(est)
    reg = layout.n_users / p_t
    for g in range(n_grp):
        vecs = model.eigenbasis(g)[1]
        dirs[:, layout.col_group(g)] = vecs[:, 0]
        members = list(layout.group_members(g))
        u_r = vecs[:, :rank]                       # (n_tx, r)
        f = u_r.conj().T @ est[:, members]         # (r, |members|)
        m = np.linalg.solve(f @ f.conj().T + reg * np.eye(rank), f)
        for col, k in enumerate(members):
            # a compressed estimate at rounding level next to f's is noise,
            # which the solve scales up with p_t: test f's column, not m's
            if not np.linalg.norm(f[:, col]) > 1e-12 * np.linalg.norm(f):
                raise ValueError(
                    f"zero-forcing direction degenerated for user {k}")
            # at low power d shrinks with p_t: scaled by the power of two
            # of its largest magnitude, its norm cannot underflow, and the
            # unit column keeps the bits of an unscaled one
            d = u_r @ m[:, col]
            d *= 2.0 ** -np.frexp(np.max(np.abs(d)))[1]
            dirs[:, layout.col_private(k)] = d / np.linalg.norm(d)
    return dirs


def run_fixed_direction(layout: StreamLayout, ens: ChannelEnsemble,
                        model: OneRingModel, p_t: float,
                        step: float = 0.05) -> FixedDirectionResult:
    """Statistics-based directions plus exhaustive power-split search.

    The directions are built once from the estimate and the group
    correlations' eigenvectors, which the model keeps
    (:func:`_fixed_directions`), and their |h^H p|^2 gains are projected
    once and split by the training loss's own helper,
    :func:`rsmeta.gradients._own_and_others`, into each user's own
    common, group and private gain and the other groups' and the other
    users' private gains at that user; a row of ones makes six rows.
    Every lattice power split, in canonical order (:func:`_lattice_powers`)
    and built as one array of per-layer column powers ``(w_c, w_g,
    w_p)``, has a 6 x 6 coefficient matrix that takes those rows to its
    complete terms: the numerators ``w_l own_l``, and each denominator a
    sum of the gains it hears times their powers plus the noise, ``den_c``
    all four gains, ``den_g`` all but the own group's and ``den_p = w_g
    other_g + w_p other_p + noise``, so nothing is subtracted. Every
    split's coefficients are built at once, and the splits are scored in
    chunks of at most 1 MiB of stacked terms, each chunk's terms one 2-d
    matrix product of its ``(6 n, 6)`` coefficient rows and its averaged
    rates one batched call of the shared rate tail's first half,
    :func:`rsmeta.gradients._rates_from_terms`, into one array for the
    whole lattice; the tail's minima and sums,
    :func:`rsmeta.gradients._asr_of_rates`, then score every split in one
    call. The first maximizer in canonical order wins, as in a loop
    keeping a strictly better split, so a split whose rate is NaN never
    wins; ``n_evaluated`` is the lattice size.
    """
    if not layout.n_groups:
        raise ValueError("fixed-direction search needs a hierarchical layout")
    if layout.n_groups != model.n_groups:
        raise ValueError("model ring count does not match layout groups")
    t0 = time.perf_counter()
    dirs = _fixed_directions(layout, ens.estimate, model, p_t)
    # the six rows: own common, own group and own private gain, the other
    # groups' and the other users' private gains, and ones
    basis = np.empty((6, layout.n_users, ens.n_draws))
    _own_and_others(_Split(channel_project(ens.realizations, dirs)[0],
                           layout, basis[:3], basis[3:5]))
    basis[5] = 1.0
    n = lattice_size(step)
    i, j, w = _lattice_powers(n, layout, p_t)

    # each split's coefficients, built once, take the rows (own common,
    # own group, own private, other groups, other privates, one) to the
    # common, group and private numerators, then to the common, group and
    # private denominators
    w_g, w_p = w[:, 1, None], w[:, 2, None]
    coef = np.zeros((len(w), 6, 6))
    coef[:, (0, 1, 2), (0, 1, 2)] = w   # the numerators
    coef[:, 3:, 3] = w_g                # every denominator's
    coef[:, 3:, 4] = w_p                # interference
    coef[:, 3:, 5] = ens.noise_power    # and noise
    coef[:, 3:5, 2] = w_p               # common and group: own private
    coef[:, 3, 1] = w_g[:, 0]           # common: own group
    coef = coef.reshape(-1, 6)
    # a chunk's numerators and denominators share one buffer, and the
    # rate code takes its log-rates in place of the SINRs; every chunk's
    # averaged rates land in one array, whose minima and sums are taken
    # once for the whole lattice
    chunk = max(1, _CHUNK_BYTES // basis.nbytes)
    terms = np.empty((min(chunk, len(w)),) + basis.shape)
    rows = basis.reshape(len(basis), -1)
    rates = np.empty((len(w), 3, layout.n_users))
    for lo in range(0, len(w), chunk):
        t = terms[:min(chunk, len(w) - lo)]
        np.matmul(coef[6 * lo:6 * (lo + len(t))], rows,
                  out=t.reshape(6 * len(t), -1))
        _rates_from_terms(t[:, :3], t[:, 3:], rates[lo:lo + len(t)])
    asr = _asr_of_rates(rates, layout)
    # the first maximizer in canonical order; a NaN split never wins
    best = int(np.argmax(np.where(np.isnan(asr), -np.inf, asr)))
    if not asr[best] > -np.inf:
        raise ValueError("no lattice split has a rate that is not NaN")
    wall = time.perf_counter() - t0

    cols = np.repeat(w[best], (1, layout.n_groups, layout.n_users))
    return FixedDirectionResult(
        best_asr=float(asr[best]),
        best_precoder=PrecoderMatrix(matrix=dirs * np.sqrt(cols)[None, :],
                                     layout=layout),
        best_split=PowerSplit(common=int(i[best]) / n,
                              group=int(j[best]) / n),
        wall_time_s=wall, n_evaluated=len(w))
