"""The fixed-direction power search as one rate call per lattice split.

``rsmeta.baselines.run_fixed_direction`` scores its lattice in batches of
splits, each batch's terms one matrix product. This is the loop it
replaced, kept as the oracle and written on the same six gain rows, built
here with plain loops: each user's own common, group and private gains,
the sums of the other groups' and of the other users' private gains at
that user (added up with the user's own gains set to zero), and ones. The
lattice is a list of splits built one by one (:func:`power_split_grid`).
Each split's column powers (:func:`stream_powers`) fill a 6 x 6 coefficient
matrix, written out entry by entry, whose product with those rows gives
the split's numerators and denominators; the rate code
(:func:`rsmeta.gradients.asr_from_terms`) scores them without a batch
axis, and a strictly better rate replaces the best split, so the first
maximizer in canonical order wins and a NaN rate never does. It checks the
library's basis, coefficients, lattice, chunking and batch axis, not the
rate arithmetic both share.
"""
from __future__ import annotations

import numpy as np

from rsmeta.baselines import PowerSplit, _fixed_directions, lattice_size
from rsmeta.gradients import asr_from_terms
from rsmeta.linalg import channel_project


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


def stream_powers(split, layout, p_t):
    """Per-column powers of a split: each layer's share divided equally."""
    w = np.empty(layout.n_streams)
    w[0] = split.common * p_t
    w[1:1 + layout.n_groups] = split.group * p_t / layout.n_groups
    w[1 + layout.n_groups:] = split.private * p_t / layout.n_users
    return w


def split_coefficients(w_c, w_g, w_p):
    """The 6 x 6 map from the rows (own common, own group, own private,
    other groups, other privates, one) to the common, group and private
    numerators, then the common, group and private denominators."""
    coef = np.zeros((6, 6))
    coef[0, 0] = w_c
    coef[1, 1] = w_g
    coef[2, 2] = w_p
    for row in (3, 4, 5):          # every denominator: the interference
        coef[row, 3] = w_g
        coef[row, 4] = w_p
        coef[row, 5] = 1.0
    coef[3, 2] = coef[4, 2] = w_p  # common and group: the own private
    coef[3, 1] = w_g               # common: the own group
    return coef


def loop_fixed_direction(layout, ens, model, p_t, step=0.05):
    """``(best_asr, best_split, best_matrix, n_evaluated)`` of the
    per-split search, on the directions the library builds."""
    dirs = _fixed_directions(layout, ens.estimate, model, p_t)
    gain = channel_project(ens.realizations, dirs)[0]
    users = range(layout.n_users)
    others = gain.copy()
    for k in users:
        others[layout.col_group(layout.group_of[k]), k] = 0.0
        others[layout.col_private(k), k] = 0.0
    groups = [others[layout.col_group(g)] for g in range(layout.n_groups)]
    privates = [others[layout.col_private(k)] for k in users]
    basis = np.stack([
        gain[layout.col_common],
        np.stack([gain[layout.col_group(layout.group_of[k]), k]
                  for k in users]),
        np.stack([gain[layout.col_private(k), k] for k in users]),
        sum(groups[1:], groups[0].copy()),
        sum(privates[1:], privates[0].copy()),
        np.ones(gain.shape[1:])])

    best_asr = -np.inf
    best_split = None
    n_eval = 0
    for split in power_split_grid(step, with_group=True):
        w = stream_powers(split, layout, p_t)
        coef = split_coefficients(w[0], w[1], w[-1])
        terms = (coef @ basis.reshape(6, -1)).reshape(basis.shape)
        asr = asr_from_terms(terms[:3], terms[3:], layout)
        n_eval += 1
        if asr > best_asr:
            best_asr = asr
            best_split = split

    w = stream_powers(best_split, layout, p_t)
    return best_asr, best_split, dirs * np.sqrt(w)[None, :], n_eval
