"""Layouts with drawn ensembles, in one call: the tests' scene builders,
the package's projection of a complex precoder matrix, a rate pass over
given powers, and a count of that projection's calls."""
from __future__ import annotations

import importlib
import pkgutil

import numpy as np

import rsmeta
from rsmeta.channel import IidCsitModel, OneRingModel
from rsmeta.gradients import _Terms
from rsmeta.layout import StreamLayout
from rsmeta.linalg import RngStream, _project


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


def project_matrix(h, mat, workspace=None):
    """:func:`rsmeta.linalg._project` of the columns of a complex (n_tx,
    n_streams) matrix ``mat`` in any layout, read as the C-ordered rows of
    (Re, Im) pairs that a view's memory is: the workspace it ran on, whose
    ``powers`` and ``z`` hold the results."""
    rows = np.ascontiguousarray(mat.T, dtype=complex)
    return _project(h, rows.view(float).reshape(*rows.shape, 2), workspace)


def rate_pass(powers, layout, backward=False):
    """A :class:`rsmeta.gradients._Terms` rate pass over a C-ordered copy
    of ``powers``, with fresh arrays: the pass zeroes each user's own
    powers, so no caller's array is written."""
    return _Terms(np.array(powers, order="C"), layout, backward=backward)


def submodules():
    """Every module of the ``rsmeta`` package, imported."""
    return [importlib.import_module(f"rsmeta.{info.name}")
            for info in pkgutil.iter_modules(rsmeta.__path__)]


def count_projections(monkeypatch):
    """Patch every name in an ``rsmeta`` module that is bound to
    :func:`rsmeta.linalg._project` with a wrapper that counts its calls;
    returns the list that each call appends its channel stack to."""
    calls = []

    def counted(h, *args, **kwargs):
        calls.append(h)
        return _project(h, *args, **kwargs)

    for mod in submodules():
        for name, obj in list(vars(mod).items()):
            if obj is _project:
                monkeypatch.setattr(mod, name, counted)
    return calls
