"""Achievable-rate computation for layered rate splitting.

Decoding order at each receiver: the global common stream first (treating
everything else as noise), then the receiver's group stream, then its own
private stream, with successive interference cancellation between layers.
A layer's shared rate is the minimum over its decoders, which keeps every
intended receiver able to decode.

The average objective follows the sample-average rule: per-user rates are
averaged over channel realizations first, and minima are taken after that
averaging. Optimizers in this package maximize that averaged sum rate.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelEnsemble
from .layout import StreamLayout

__all__ = ["PrecoderMatrix", "RateReport", "SafReport",
           "sinr_triplet", "rate_report", "saf_report"]

_LN2 = float(np.log(2.0))


@dataclass
class PrecoderMatrix:
    """Precoder columns in fixed stream order: common, groups, privates.

    One-layer layouts keep the group columns allocated but require them to
    be exactly zero, so the two modes share one column map everywhere.
    """

    matrix: np.ndarray
    layout: StreamLayout

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        want = (self.layout.n_tx, self.layout.n_streams)
        if self.matrix.shape != want:
            raise ValueError(
                f"precoder shape {self.matrix.shape} does not match layout "
                f"(expected {want})")
        if not np.all(np.isfinite(self.matrix)):
            raise ValueError("precoder contains non-finite entries")
        if self.layout.mode == "one_layer":
            grp = self.matrix[:, 1:1 + self.layout.n_groups]
            if np.any(grp != 0):
                raise ValueError(
                    "one-layer mode requires zero group columns; got nonzero")

    @property
    def total_power(self) -> float:
        return float(np.sum(np.abs(self.matrix) ** 2))

    def stream_power(self, col: int) -> float:
        return float(np.sum(np.abs(self.matrix[:, col]) ** 2))


@dataclass
class RateReport:
    """Instantaneous rates for one channel realization (bits/s/Hz)."""

    per_user_common: np.ndarray   # (K,) rate of the global common stream at user k
    per_user_group: np.ndarray    # (K,) rate of user k's group stream at user k
    per_user_private: np.ndarray  # (K,) private stream rate of user k
    common_rate: float            # min over users
    group_rates: np.ndarray       # (G,) min over each group's members
    sum_rate: float


@dataclass
class SafReport:
    """Rates averaged over an ensemble, minima taken after averaging."""

    avg_per_user_common: np.ndarray
    avg_per_user_group: np.ndarray
    avg_per_user_private: np.ndarray
    common_rate: float
    group_rates: np.ndarray
    avg_sum_rate: float


def _stream_powers(h: np.ndarray, p: np.ndarray) -> np.ndarray:
    """|h_k^H p_s|^2 for every (realization, user, stream)."""
    z = np.einsum("mik,is->mks", np.conj(h), p)
    return z.real ** 2 + z.imag ** 2


def sinr_triplet(p, h: np.ndarray, layout: StreamLayout,
                 noise_power: float = 1.0):
    """Per-layer SINRs under the layered decoding order.

    Parameters
    ----------
    p : PrecoderMatrix or ndarray (n_tx, n_streams)
    h : ndarray, (n_tx, n_users) or (n_draws, n_tx, n_users)
    layout : StreamLayout
    noise_power : float

    Returns
    -------
    (sinr_common, sinr_group, sinr_private)
        Each shaped (n_users,) for a single channel or (n_draws, n_users)
        for a stack. ``sinr_group`` is identically zero in one-layer mode.
    """
    pm = np.asarray(getattr(p, "matrix", p), dtype=complex)
    h = np.asarray(h, dtype=complex)
    single = h.ndim == 2
    if single:
        h = h[None, :, :]
    if h.shape[1:] != (layout.n_tx, layout.n_users):
        raise ValueError(f"channel shape {h.shape} does not match layout")
    if not noise_power > 0:
        raise ValueError(f"noise_power must be positive, got {noise_power}")
    g = layout.n_groups
    powers = _stream_powers(h, pm)                   # (m, k, s)
    t_com = powers[:, :, 0]
    t_grp = np.sum(powers[:, :, 1:1 + g], axis=2)
    t_prv = np.sum(powers[:, :, 1 + g:], axis=2)
    own_g = powers[:, np.arange(layout.n_users),
                   1 + np.asarray(layout.group_of)]
    own_p = powers[:, np.arange(layout.n_users),
                   1 + g + np.arange(layout.n_users)]
    den_c = t_grp + t_prv + noise_power
    den_g = den_c - own_g
    den_p = den_g - own_p
    sinr_c = t_com / den_c
    sinr_g = own_g / den_g
    sinr_p = own_p / den_p
    if single:
        return sinr_c[0], sinr_g[0], sinr_p[0]
    return sinr_c, sinr_g, sinr_p


def _to_rate(sinr: np.ndarray) -> np.ndarray:
    return np.log1p(sinr) / _LN2


def _layered(rc, rg, rp, layout: StreamLayout) -> tuple:
    """Per-user rates, the common-rate minimum, each group's minimum (zeros
    in one-layer mode) and the sum rate: the fields of either report."""
    grp = np.zeros(layout.n_groups) if layout.mode == "one_layer" else \
        np.array([np.min(rg[list(layout.group_members(g))])
                  for g in range(layout.n_groups)])
    return (rc, rg, rp, float(np.min(rc)), grp,
            float(np.min(rc) + np.sum(grp) + np.sum(rp)))


def rate_report(p, h: np.ndarray, layout: StreamLayout,
                noise_power: float = 1.0) -> RateReport:
    """Rates for a single channel realization."""
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2:
        raise ValueError("rate_report expects a single channel (n_tx, n_users)")
    sc, sg, sp = sinr_triplet(p, h, layout, noise_power)
    return RateReport(*_layered(_to_rate(sc), _to_rate(sg), _to_rate(sp),
                                layout))


def saf_report(p, ens: ChannelEnsemble, layout: StreamLayout) -> SafReport:
    """Ensemble-averaged rates; minima are taken after the average.

    The averaged sum rate is the quantity every optimizer in this package
    maximizes: min-over-users of the averaged common rate, plus each group
    layer's min-over-members averaged rate, plus all averaged private rates.
    """
    sc, sg, sp = sinr_triplet(p, ens.realizations, layout, ens.noise_power)
    return SafReport(*_layered(*(np.mean(_to_rate(x), axis=0)
                                 for x in (sc, sg, sp)), layout))
