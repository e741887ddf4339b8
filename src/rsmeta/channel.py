"""Channel models and ensemble containers.

Two partial-CSI models are provided. The i.i.d. model adds an estimation
error whose power shrinks polynomially with transmit power, so CSI quality
improves with SNR. The one-ring model builds spatially correlated channels
from a uniform linear array facing narrow angular clusters, with a fixed
quality factor independent of SNR.

Both expose the same contract: ``draw`` produces a :class:`ChannelEnsemble`
holding one channel estimate plus a batch of realizations that are
statistically consistent with that estimate. The receiver noise is unit
throughout the package, so the transmit power ``p_t`` sets the SNR, and
an ensemble holds channels only. Both draw C-ordered stacks, and an
ensemble keeps the complex arrays it is given, read-only once checked:
the layouts that the projection needs are its workspace's
(:class:`rsmeta.linalg.ProjectionWorkspace`).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .layout import StreamLayout
from .linalg import RngStream, gaussian_matrix, herm_eig

__all__ = ["ChannelEnsemble", "IidCsitModel", "OneRingModel",
           "one_ring_correlation"]

NEG_TOL = 1e-9  # eigenvalues above -NEG_TOL are _root_of's roundoff


@dataclass
class ChannelEnsemble:
    """One channel estimate and a stack of consistent realizations.

    Attributes
    ----------
    estimate : ndarray, (n_tx, n_users) complex
        Channel estimate at the transmitter; column k is user k.
    realizations : ndarray, (n_draws, n_tx, n_users) complex
        Channel draws used to average rates over the estimation error, in
        any memory layout.

    Every receiver's noise has unit power, so the transmit power ``p_t``
    sets the SNR. Both arrays are checked finite when the ensemble is
    built and then made read-only; the ensemble keeps the very arrays it
    is given, so the caller's arrays become read-only too. Only those
    arrays are locked: if one is a view, its base stays writeable, and a
    write through the base still reaches the ensemble.
    """

    estimate: np.ndarray
    realizations: np.ndarray

    def __post_init__(self):
        self.estimate = np.asarray(self.estimate, dtype=complex)
        self.realizations = np.asarray(self.realizations, dtype=complex)
        if self.estimate.ndim != 2:
            raise ValueError(f"estimate must be 2-d, got shape {self.estimate.shape}")
        if self.realizations.ndim != 3:
            raise ValueError(f"realizations must be 3-d, "
                             f"got shape {self.realizations.shape}")
        if self.realizations.shape[1:] != self.estimate.shape:
            raise ValueError(
                f"realization shape {self.realizations.shape[1:]} does not match "
                f"estimate shape {self.estimate.shape}")
        if not (np.all(np.isfinite(self.estimate))
                and np.all(np.isfinite(self.realizations))):
            raise ValueError("channel ensemble contains non-finite entries")
        # checked once, so nothing may write into them afterwards
        for a in (self.estimate, self.realizations):
            a.flags.writeable = False

    @property
    def n_tx(self) -> int:
        return self.estimate.shape[0]

    @property
    def n_users(self) -> int:
        return self.estimate.shape[1]

    @property
    def n_draws(self) -> int:
        return self.realizations.shape[0]


# ---------------------------------------------------------------------------
# i.i.d. partial-CSI model
# ---------------------------------------------------------------------------

def _around(rng: RngStream, estimate: np.ndarray, sig_e2: float,
            n_draws: int) -> ChannelEnsemble:
    """Realizations ``estimate + e`` with fresh circular Gaussian errors of
    variance ``sig_e2`` per entry."""
    scale = np.sqrt(sig_e2 / 2.0)
    shape = (int(n_draws),) + estimate.shape
    real = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    real += estimate
    return ChannelEnsemble(estimate=estimate, realizations=real)


@dataclass(frozen=True)
class IidCsitModel:
    """Rayleigh channels with power-dependent estimation error.

    Every channel entry has unit variance, as the noise has unit power. The
    error variance is ``p_t ** -alpha`` unless ``error_power`` pins it
    explicitly (0 gives perfect CSI), and the estimate carries the rest,
    ``1 - error variance``, so a variance above 1 raises. Estimate and
    error are independent complex Gaussians, and each realization is
    estimate plus a fresh error draw, so the estimate is the conditional
    mean of every realization.
    """

    n_tx: int
    n_users: int
    alpha: float = 0.6
    error_power: float = None

    def error_var(self, p_t: float) -> float:
        if self.error_power is not None:
            if not self.error_power >= 0:
                raise ValueError("error_power must be nonnegative")
            return float(self.error_power)
        if p_t <= 0:
            raise ValueError(f"transmit power must be positive, got {p_t}")
        return float(p_t) ** (-self.alpha)

    def draw(self, rng: RngStream, p_t: float,
             n_draws: int) -> ChannelEnsemble:
        sig_e2 = self.error_var(p_t)
        if sig_e2 > 1.0:
            raise ValueError(
                f"error variance {sig_e2:.4g} exceeds the unit channel "
                "variance; the estimate would have negative power")
        base = gaussian_matrix(rng, self.n_tx, self.n_users, 1.0)
        estimate = base * np.sqrt(1.0 - sig_e2)
        return _around(rng, estimate, sig_e2, n_draws)

    def draw_pair(self, rng: RngStream, p_t: float, n_draws: int,
                  n_eval: int):
        """One estimate, two independent realization batches.

        The second batch is a held-out set consistent with the same
        estimate, for evaluating a precoder on realizations it was not
        optimized against. ``n_eval = 0`` returns None for the second batch.
        """
        first = self.draw(rng, p_t, n_draws)
        if n_eval == 0:
            return first, None
        return first, _around(rng, first.estimate, self.error_var(p_t),
                              n_eval)


# ---------------------------------------------------------------------------
# one-ring correlated model
# ---------------------------------------------------------------------------

def one_ring_correlation(n_tx: int, spacing: float, azimuth: float,
                         spread: float, nodes: int = 513) -> np.ndarray:
    """Antenna correlation of a uniform linear array facing one scatter ring.

    Entry (m, n) averages the array phase shift ``exp(-2j*pi*spacing*(m-n)
    * sin(angle))`` over angles uniform on ``azimuth +- spread``. The matrix
    is Hermitian Toeplitz; each lag is integrated once by the composite
    Simpson rule on ``nodes`` equally spaced angles (odd, at least 3: an
    even number of intervals, weights 1, 4, 2, ..., 4, 1 times a third of
    the step), and divided by the same rule's integral of the constant 1,
    which makes the diagonal exactly 1 regardless of node count. The
    angles, weights and sines are built once per call.
    """
    if n_tx < 1:
        raise ValueError(f"n_tx must be >= 1, got {n_tx}")
    if not 0 < spacing < np.inf:
        raise ValueError(f"spacing must be positive and finite, got {spacing}")
    if not np.isfinite(azimuth):
        raise ValueError(f"azimuth must be finite, got {azimuth}")
    if not 0 < spread <= np.pi:
        raise ValueError(f"spread must lie in (0, pi], got {spread}")
    nodes = int(nodes)
    if nodes < 3 or nodes % 2 == 0:
        raise ValueError(f"nodes must be odd and >= 3, got {nodes}")
    lo, hi = azimuth - spread, azimuth + spread
    angles = np.linspace(lo, hi, nodes)
    w = np.ones(nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    third = (hi - lo) / (nodes - 1) / 3.0
    norm = complex(third * np.dot(w, np.ones(nodes, dtype=complex)))
    if norm == 0:
        raise ValueError(f"azimuth {azimuth!r} +- spread {spread!r} rounds "
                         f"to an interval of no width")
    sines = np.sin(angles)
    lags = np.empty(n_tx, dtype=complex)
    for ell in range(n_tx):
        y = np.exp(-2j * np.pi * spacing * ell * sines)
        lags[ell] = complex(third * np.dot(w, y)) / norm
    idx = np.arange(n_tx)
    diff = idx[:, None] - idx[None, :]
    r = np.where(diff >= 0, lags[np.abs(diff)], np.conj(lags[np.abs(diff)]))
    return r


def _root_of(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Hermitian square root of the positive semidefinite matrix whose
    :func:`rsmeta.linalg.herm_eig` result is ``(w, v)``.

    Eigenvalues in ``(-NEG_TOL, 0)`` are treated as integration roundoff
    and clipped to zero; anything at or below ``-NEG_TOL`` is a genuine
    failure and raises.
    """
    if np.any(w <= -NEG_TOL):
        raise ValueError(
            f"matrix is not positive semidefinite: min eigenvalue {w.min():.3e}")
    w = np.where(w < 0, 0.0, w)
    return (v * np.sqrt(w)[None, :]) @ v.conj().T


@dataclass(frozen=True)
class OneRingModel:
    """Correlated channels from per-group scatter rings seen by a ULA.

    Each group g has its own correlation ``R_g`` from its azimuth; user k in
    group g draws ``estimate = sqrt(R_g) @ ghat`` with white ``ghat``, and
    realizations share a fraction ``1 - tau2`` of that white seed:

        h = sqrt(R_g) @ (sqrt(1 - tau2) * ghat + tau * w)

    with fresh white ``w`` per draw. ``tau2 = 0`` is perfect CSI, ``tau2 = 1``
    leaves the estimate uninformative. This is the exact conditional law of
    the channel given the estimate, not an approximation.

    Each group's correlation, at :func:`one_ring_correlation`'s default
    node count, its eigendecomposition and the square root taken from that
    decomposition are computed once per model, on first use, and kept on it
    read-only, so every draw and the fixed-direction search of one model
    share its correlations, decompositions and roots.
    """

    n_tx: int
    azimuths: tuple
    spread: float
    tau2: float = 0.0
    spacing: float = 0.5

    def __post_init__(self):
        if not 0 <= self.tau2 <= 1:
            raise ValueError(f"tau2 must lie in [0, 1], got {self.tau2}")
        if not 0 < self.spacing < np.inf:
            raise ValueError(f"spacing must be positive and finite, "
                             f"got {self.spacing}")
        object.__setattr__(self, "azimuths", tuple(float(a) for a in self.azimuths))
        if not all(np.isfinite(self.azimuths)):
            raise ValueError(f"azimuths must be finite, got {self.azimuths}")

    @property
    def n_groups(self) -> int:
        return len(self.azimuths)

    @cached_property
    def _correlations(self) -> tuple:
        """Every group's ``(correlation, root, (w, v))``, ``(w, v)`` the
        correlation's :func:`rsmeta.linalg.herm_eig` result; once per
        model, read-only."""
        out = []
        for azimuth in self.azimuths:
            r = one_ring_correlation(self.n_tx, self.spacing, azimuth,
                                     self.spread)
            eig = herm_eig(r)
            root = _root_of(*eig)
            for a in (r, root, *eig):
                a.flags.writeable = False
            out.append((r, root, eig))
        return tuple(out)

    def correlation(self, g: int) -> np.ndarray:
        """Group g's antenna correlation; read-only, shared by every call."""
        return self._correlations[g][0]

    def eigenbasis(self, g: int) -> tuple:
        """Group g's correlation's :func:`rsmeta.linalg.herm_eig` result,
        ``(w, v)`` with eigenvalues descending; read-only, shared by every
        call."""
        return self._correlations[g][2]

    def draw(self, rng: RngStream, layout: StreamLayout,
             n_draws: int) -> ChannelEnsemble:
        ens, _ = self._draw_impl(rng, layout, n_draws, 0)
        return ens

    def draw_pair(self, rng: RngStream, layout: StreamLayout, n_draws: int,
                  n_eval: int):
        """One estimate, two independent realization batches (see the
        i.i.d. model's method of the same name). ``n_eval = 0`` returns
        None for the second batch."""
        return self._draw_impl(rng, layout, n_draws, int(n_eval))

    def _draw_impl(self, rng: RngStream, layout: StreamLayout, n_draws: int,
                   n_eval: int):
        if layout.n_tx != self.n_tx:
            raise ValueError("layout antenna count does not match the model")
        if layout.n_groups != self.n_groups:
            raise ValueError(
                f"model has {self.n_groups} rings but layout has "
                f"{layout.n_groups} groups")
        n_draws = int(n_draws)
        keep = np.sqrt(1.0 - self.tau2)
        tau = np.sqrt(self.tau2)
        estimate = np.empty((self.n_tx, layout.n_users), dtype=complex)
        real = np.empty((n_draws, self.n_tx, layout.n_users), dtype=complex)
        real2 = np.empty((n_eval, self.n_tx, layout.n_users), dtype=complex)
        for k in range(layout.n_users):
            s = self._correlations[layout.group_of[k]][1]
            ghat = gaussian_matrix(rng, self.n_tx, 1, 1.0)[:, 0]
            shape = (n_draws + n_eval, self.n_tx)
            w = np.sqrt(0.5) * (rng.standard_normal(shape)
                                + 1j * rng.standard_normal(shape))
            estimate[:, k] = s @ ghat
            mixed = (keep * ghat[None, :] + tau * w) @ s.T
            real[:, :, k] = mixed[:n_draws]
            real2[:, :, k] = mixed[n_draws:]
        first = ChannelEnsemble(estimate=estimate, realizations=real)
        if n_eval == 0:
            return first, None
        return first, ChannelEnsemble(estimate=estimate, realizations=real2)
