"""The fixed-direction power search as one rate call per lattice split.

``rsmeta.baselines.run_fixed_direction`` scores its lattice in batches of
splits through the batched rate code. This is the loop it replaced, kept
as the oracle and written on the same per-layer sums: each user's own
common, group and private gains, and the sums of all group and of all
private gains, are taken once from the unit-direction gains; each split's
column powers (:func:`stream_powers`) scale the own gains into the
numerators and the two sums into the common denominator, the rate code
(:func:`rsmeta.gradients.asr_from_terms`) scores them without a batch
axis, and a strictly better rate replaces the best split, so the first
maximizer in canonical order wins and a NaN rate never does. It checks the
library's lattice, chunking and batch axis, not the rate arithmetic both
share.
"""
from __future__ import annotations

import numpy as np

from rsmeta.baselines import _fixed_directions, power_split_grid
from rsmeta.gradients import asr_from_terms
from rsmeta.linalg import channel_project


def stream_powers(split, layout, p_t):
    """Per-column powers of a split: each layer's share divided equally."""
    w = np.empty(layout.n_streams)
    w[0] = split.common * p_t
    w[1:1 + layout.n_groups] = split.group * p_t / layout.n_groups
    w[1 + layout.n_groups:] = split.private * p_t / layout.n_users
    return w


def loop_fixed_direction(layout, ens, model, p_t, step=0.05, rank=None):
    """``(best_asr, best_split, best_matrix, n_evaluated)`` of the
    per-split search, on the directions the library builds."""
    dirs = _fixed_directions(layout, ens.estimate, model, p_t, rank)
    gain = channel_project(ens.realizations, dirs)[0]
    groups = [gain[layout.col_group(g)] for g in range(layout.n_groups)]
    privates = [gain[layout.col_private(k)] for k in range(layout.n_users)]
    users = range(layout.n_users)
    own = np.stack([
        gain[layout.col_common],
        np.stack([gain[layout.col_group(layout.group_of[k]), k]
                  for k in users]),
        np.stack([gain[layout.col_private(k), k] for k in users])])
    grp_sum = sum(groups[1:], groups[0].copy())
    prv_sum = sum(privates[1:], privates[0].copy())

    best_asr = -np.inf
    best_split = None
    n_eval = 0
    for split in power_split_grid(step, with_group=True):
        w = stream_powers(split, layout, p_t)
        w_c, w_g, w_p = w[0], w[1], w[-1]
        num = own * np.array([w_c, w_g, w_p])[:, None, None]
        den = np.empty_like(num)
        den[0] = w_g * grp_sum + w_p * prv_sum + ens.noise_power
        asr = asr_from_terms(num, den, layout)
        n_eval += 1
        if asr > best_asr:
            best_asr = asr
            best_split = split

    w = stream_powers(best_split, layout, p_t)
    return best_asr, best_split, dirs * np.sqrt(w)[None, :], n_eval
