"""Achievable-rate computation for layered rate splitting.

Decoding order at each receiver: the global common stream first (treating
everything else as noise), then the receiver's group stream, then its own
private stream, with successive interference cancellation between layers.
A layer's shared rate is the minimum over its decoders, which keeps every
intended receiver able to decode.

The average objective follows the sample-average rule: per-user rates are
averaged over channel realizations first, and minima are taken after that
averaging. Optimizers in this package maximize that averaged sum rate.

Rates are taken over stacks of realizations only: a single channel is the
one-draw stack ``h[None]``, whose average is its own rate, so
:func:`saf_report` is the one report for both.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelEnsemble
from .layout import StreamLayout

__all__ = ["PrecoderMatrix", "SafReport", "sinr_triplet", "saf_report"]

_LN2 = float(np.log(2.0))


@dataclass
class PrecoderMatrix:
    """Precoder columns in fixed stream order: common, groups, privates."""

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

    @property
    def total_power(self) -> float:
        return float(np.sum(np.abs(self.matrix) ** 2))

    def stream_power(self, col: int) -> float:
        return float(np.sum(np.abs(self.matrix[:, col]) ** 2))


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
    h : ndarray, (n_draws, n_tx, n_users)
        A stack of channels; one channel is the one-draw stack ``h[None]``.
    layout : StreamLayout
    noise_power : float

    Returns
    -------
    (sinr_common, sinr_group, sinr_private)
        Each shaped (n_draws, n_users). ``sinr_group`` is identically zero
        without groups.
    """
    pm = np.asarray(getattr(p, "matrix", p), dtype=complex)
    h = np.asarray(h, dtype=complex)
    if h.shape[1:] != (layout.n_tx, layout.n_users):
        raise ValueError(f"channel shape {h.shape} does not match layout")
    if pm.shape != (layout.n_tx, layout.n_streams):
        raise ValueError(f"precoder shape {pm.shape} does not match layout")
    if not noise_power > 0:
        raise ValueError(f"noise_power must be positive, got {noise_power}")
    g, users = layout.n_groups, layout.user_rows
    powers = _stream_powers(h, pm)                   # (m, k, s)
    t_com = powers[:, :, 0]
    t_grp = np.sum(powers[:, :, 1:1 + g], axis=2)
    t_prv = np.sum(powers[:, :, 1 + g:], axis=2)
    own_g = powers[:, users, layout.own_group_cols] if g else 0.0
    own_p = powers[:, users, 1 + g + users]
    den_c = t_grp + t_prv + noise_power
    den_g = den_c - own_g
    den_p = den_g - own_p
    sinr_c = t_com / den_c
    sinr_g = own_g / den_g
    sinr_p = own_p / den_p
    return sinr_c, sinr_g, sinr_p


def saf_report(p, ens: ChannelEnsemble, layout: StreamLayout) -> SafReport:
    """Ensemble-averaged rates; minima are taken after the average.

    The averaged sum rate is the quantity every optimizer in this package
    maximizes: min-over-users of the averaged common rate, plus each group
    layer's min-over-members averaged rate, plus all averaged private
    rates. ``group_rates`` is empty without groups.
    """
    sc, sg, sp = sinr_triplet(p, ens.realizations, layout, ens.noise_power)
    rc, rg, rp = (np.mean(np.log1p(x) / _LN2, axis=0) for x in (sc, sg, sp))
    grp = np.array([np.min(rg[m]) for m in layout.member_rows])
    return SafReport(rc, rg, rp, float(np.min(rc)), grp,
                     float(np.min(rc) + np.sum(grp) + np.sum(rp)))
