"""Layouts with drawn ensembles, in one call: the tests' scene builders."""
from __future__ import annotations

from rsmeta.channel import IidCsitModel, OneRingModel
from rsmeta.layout import StreamLayout
from rsmeta.linalg import RngStream


def draw_iid_scene(seed: int, n_tx: int, n_users: int, p_t: float,
                   alpha: float = 0.6, n_draws: int = 1000,
                   error_power: float = None):
    """One-layer layout plus an i.i.d. partial-CSI ensemble, in one call."""
    layout = StreamLayout.one_layer(n_tx, n_users)
    model = IidCsitModel(n_tx=n_tx, n_users=n_users, alpha=alpha,
                         error_power=error_power)
    ens = model.draw(RngStream(seed), p_t, n_draws)
    return layout, ens


def draw_one_ring_scene(seed: int, n_tx: int, n_users: int, n_groups: int,
                        azimuths, spread: float, tau2: float,
                        n_draws: int = 1000, spacing: float = 0.5):
    """Hierarchical layout plus a one-ring ensemble, in one call."""
    layout = StreamLayout.hierarchical(n_tx, n_users, n_groups)
    model = OneRingModel(n_tx=n_tx, azimuths=tuple(azimuths), spread=spread,
                         tau2=tau2, spacing=spacing)
    ens = model.draw(RngStream(seed), layout, n_draws)
    return layout, ens
